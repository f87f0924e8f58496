// pto::json — the one JSON string escaper and number formatter shared by
// every structured writer (bench records, the profiler report, the metrics
// stream), so their output agrees byte for byte.
#pragma once

#include <ostream>
#include <string>
#include <string_view>

namespace pto::json {

/// Append `v` as a quoted JSON string: quote, backslash, \n and \t get
/// their short escapes, other control bytes \u00XX.
void put_str(std::string& out, std::string_view v);

/// Append `v` formatted as %.6g.
void put_num(std::string& out, double v);

inline void put_str(std::ostream& os, std::string_view v) {
  std::string s;
  put_str(s, v);
  os << s;
}
inline void put_num(std::ostream& os, double v) {
  std::string s;
  put_num(s, v);
  os << s;
}

}  // namespace pto::json
