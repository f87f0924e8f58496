#include "common/json.h"

#include <cstdio>

namespace pto::json {

void put_str(std::string& out, std::string_view v) {
  out += '"';
  for (char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char b[8];
          std::snprintf(b, sizeof b, "\\u%04x", c);
          out += b;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void put_num(std::string& out, double v) {
  char b[32];
  std::snprintf(b, sizeof b, "%.6g", v);
  out += b;
}

}  // namespace pto::json
