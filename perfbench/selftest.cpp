// Checks of the benchmark's own arithmetic (stats.h) against hand-computed
// values. perfbench/run.py runs this before every measurement and refuses to
// report numbers if any check fails. Exit code 0 = all checks passed.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "selftest FAIL %s: got %.12g want %.12g\n", what, got,
                 want);
    ++g_failures;
  }
}

void check_percentiles() {
  using perfbench::percentile;
  std::vector<int> one_to_100;
  for (int i = 100; i >= 1; --i) one_to_100.push_back(i);
  expect_near("p50 of 1..100", percentile(one_to_100, 50), 50);
  expect_near("p99 of 1..100", percentile(one_to_100, 99), 99);
  expect_near("p100 of 1..100", percentile(one_to_100, 100), 100);
  expect_near("p1 of 1..100", percentile(one_to_100, 1), 1);

  std::vector<std::uint32_t> five{50, 10, 40, 20, 30};
  expect_near("p50 of 5", percentile(five, 50), 30);   // rank ceil(2.5) = 3
  expect_near("p99 of 5", percentile(five, 99), 50);   // rank ceil(4.95) = 5
  expect_near("p20 of 5", percentile(five, 20), 10);   // rank 1 exactly

  std::vector<std::uint32_t> single{7};
  expect_near("p99 of 1", percentile(single, 99), 7);
  std::vector<std::uint32_t> none;
  expect_near("p50 of none", percentile(none, 50), 0);

  // 1000 samples: p99 is the 990th smallest, leaving 10 samples above it.
  std::vector<std::uint32_t> k;
  for (std::uint32_t i = 1; i <= 1000; ++i) k.push_back(i * 3);
  expect_near("p99 of 1000", percentile(k, 99), 990 * 3);

  expect_near("median odd", perfbench::median({3, 1, 2}), 2);
  expect_near("median even", perfbench::median({4, 1, 3, 2}), 2.5);
  expect_near("median none", perfbench::median({}), 0);
}

void check_self_time() {
  using perfbench::Span;
  // section [0,100) with two parallel workers [10,60) and [40,90): their
  // union covers [10,90) = 80, so the section's self time is 20. Worker 1
  // has two ops [12,20) and [15,30) (overlap -> union [12,30) = 18) and a
  // grandchild-free op [50,55) -> self 50 - 18 - 5 = 27. Worker 2 has an op
  // that runs past its parent's end [85,120): only [85,90) is covered.
  const std::vector<Span> spans{
      {1, 0, 0, 0, 100, 0, 0, 0},   // section
      {2, 1, 0, 10, 60, 1, 0, 1},   // worker 1
      {3, 1, 0, 40, 90, 1, 0, 2},   // worker 2
      {4, 2, 7, 12, 20, 2, 0, 1},   // op
      {5, 2, 8, 15, 30, 2, 0, 1},   // op
      {6, 2, 9, 50, 55, 2, 0, 1},   // op
      {7, 3, 10, 85, 120, 2, 0, 2}, // op overrunning its parent
      {8, 99, 11, 0, 10, 2, 0, 0},  // dangling parent: treated as a root
  };
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  expect_near("self section", static_cast<double>(self[0]), 20);
  expect_near("self worker1", static_cast<double>(self[1]), 27);
  expect_near("self worker2", static_cast<double>(self[2]), 45);
  expect_near("self leaf", static_cast<double>(self[3]), 8);
  expect_near("self overrun leaf", static_cast<double>(self[6]), 35);
  expect_near("self dangling", static_cast<double>(self[7]), 10);
}

void check_fractions() {
  using perfbench::idle_frac;
  // 4 workers, makespan 100: busy 100+90+80+50 = 320 of 400 -> 0.2 idle.
  expect_near("idle 0.2", idle_frac(100, 4, 320), 0.2);
  expect_near("idle none", idle_frac(100, 4, 400), 0.0);
  expect_near("idle skew clamp", idle_frac(100, 4, 401), 0.0);
  expect_near("idle empty", idle_frac(0, 4, 0), 0.0);

  expect_near("per_kop", perfbench::per_kop(25, 5000), 5.0);
  expect_near("per_kop no ops", perfbench::per_kop(3, 0), 0.0);
  expect_near("ratio", perfbench::ratio(3, 4), 0.75);
  expect_near("ratio no base", perfbench::ratio(3, 0), 0.0);

  expect_near("imbalance even", perfbench::imbalance({5, 5, 5, 5}), 1.0);
  expect_near("imbalance hot", perfbench::imbalance({10, 2, 2, 2}), 2.5);
  expect_near("imbalance empty", perfbench::imbalance({}), 0.0);
}

}  // namespace

int main() {
  check_percentiles();
  check_self_time();
  check_fractions();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
