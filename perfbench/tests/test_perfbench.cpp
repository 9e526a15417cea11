// Unit tests of the benchmark's own helpers: the percentile contract, the
// cost-model line fit, and the determinism of the generated inputs.
//
//   cmake --build <build> --target perfbench_tests && <build>/perfbench_tests
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
}

template <class F>
bool throws_invalid_argument(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void percentile_is_nearest_rank() {
  const std::vector<double> v{5, 1, 4, 2, 3, 10, 9, 8, 7, 6};
  expect(perfbench::percentile(v, 0.0) == 1, "p=0 is the minimum");
  expect(perfbench::percentile(v, 0.5) == 5, "p=0.5 of 1..10 is rank 5");
  expect(perfbench::percentile(v, 0.9) == 9, "p=0.9 of 1..10 is rank 9");
  expect(perfbench::percentile(v, 0.91) == 10, "p=0.91 of 1..10 rounds the rank up");
  expect(perfbench::percentile(v, 1.0) == 10, "p=1 is the maximum");
  expect(perfbench::percentile({7}, 0.5) == 7, "a single sample is every percentile");
}

void percentile_rejects_percent_scale() {
  const std::vector<double> v{1, 2, 3};
  expect(throws_invalid_argument([&] { perfbench::percentile(v, 50.0); }),
         "p=50 (a percent, not a fraction) is rejected");
  expect(throws_invalid_argument([&] { perfbench::percentile(v, 95.0); }), "p=95 is rejected");
  expect(throws_invalid_argument([&] { perfbench::percentile(v, -0.1); }), "p<0 is rejected");
  expect(throws_invalid_argument([&] { perfbench::percentile(v, std::nan("")); }),
         "p=NaN is rejected");
  expect(throws_invalid_argument([] { perfbench::percentile({}, 0.5); }),
         "an empty sample is rejected");
}

void line_fit_recovers_a_line() {
  const perfbench::line_fit f = perfbench::fit_line({1, 2, 4, 8}, {13, 15, 19, 27});
  expect(std::abs(f.intercept - 11.0) < 1e-9 && std::abs(f.slope - 2.0) < 1e-9,
         "fit_line recovers y = 11 + 2x");
  expect(throws_invalid_argument([] { perfbench::fit_line({3, 3}, {1, 2}); }),
         "fit_line needs two distinct x values");
}

void inputs_follow_the_seed() {
  for (const std::string& w : perfbench::workload_names()) {
    const pelta::byte_buffer a = perfbench::input_bytes(w, 7);
    expect(!a.empty(), w + ": inputs are generated");
    expect(a == perfbench::input_bytes(w, 7), w + ": the same seed gives byte-identical inputs");
    expect(a != perfbench::input_bytes(w, 8), w + ": another seed gives different inputs");
  }
}

}  // namespace

int main() {
  percentile_is_nearest_rank();
  percentile_rejects_percent_scale();
  line_fit_recovers_a_line();
  inputs_follow_the_seed();
  if (failures == 0) std::printf("perfbench_tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
