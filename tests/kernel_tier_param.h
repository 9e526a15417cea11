// Runs a gtest suite once per kernel tier this host supports (see
// tensor/kernel_tier.h), not only on the tier the library selects:
//
//   class BlockedGemm : public kernel_tier_test {};
//   INSTANTIATE_TEST_SUITE_P(Tiers, BlockedGemm, every_kernel_tier(), kernel_tier_param_name);
//   TEST_P(BlockedGemm, Case) { ... }   // body runs with that tier active
//
// The fixture routes every kernel call, pool threads included, to its tier
// for the whole case. The frozen references in reference_kernels.h never go
// through a tier, so each case compares every tier to the same baseline.
#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "tensor/kernel_tier.h"

namespace pelta::ops::detail {

// gtest prints a failing case's parameter through this (found by ADL).
inline void PrintTo(kernel_tier t, std::ostream* os) { *os << kernel_tier_name(t); }

}  // namespace pelta::ops::detail

namespace pelta {

class kernel_tier_test : public ::testing::TestWithParam<ops::detail::kernel_tier> {
private:
  ops::detail::scoped_kernel_tier tier_{GetParam()};
};

inline auto every_kernel_tier() {
  const auto tiers = ops::detail::supported_kernel_tiers();
  return ::testing::ValuesIn(std::vector<ops::detail::kernel_tier>(tiers.begin(), tiers.end()));
}

inline std::string kernel_tier_param_name(
    const ::testing::TestParamInfo<ops::detail::kernel_tier>& info) {
  return ops::detail::kernel_tier_name(info.param);
}

}  // namespace pelta
