// Contract of the shared bench helpers (bench/common.h) that gates and
// ledgers lean on.
#include <gtest/gtest.h>

#include <vector>

#include "bench/common.h"
#include "tensor/check.h"

namespace pelta {
namespace {

TEST(BenchPercentile, NearestRankOverFractions) {
  const std::vector<double> v{5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0};
  EXPECT_EQ(bench::percentile(v, 0.0), 1.0);
  EXPECT_EQ(bench::percentile(v, 0.5), 5.0);    // rank ceil(0.5 * 10) = 5
  EXPECT_EQ(bench::percentile(v, 0.95), 10.0);  // rank ceil(9.5) = 10
  EXPECT_EQ(bench::percentile(v, 0.9), 9.0);
  EXPECT_EQ(bench::percentile(v, 1.0), 10.0);
  EXPECT_EQ(bench::percentile({}, 0.5), 0.0);
}

TEST(BenchPercentile, RejectsPercentAndOutOfRangeFractions) {
  // 50.0 / 95.0 are percents, not fractions: they used to clamp to 1.0 and
  // report the maximum as both p50 and p95.
  const std::vector<double> v{1.0, 2.0, 3.0};
  EXPECT_THROW(bench::percentile(v, 50.0), error);
  EXPECT_THROW(bench::percentile(v, 95.0), error);
  EXPECT_THROW(bench::percentile(v, -0.01), error);
  EXPECT_THROW(bench::percentile(v, 1.0001), error);
  EXPECT_THROW(bench::percentile({}, 2.0), error);
}

}  // namespace
}  // namespace pelta
