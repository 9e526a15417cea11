// Fused multi-head attention (autodiff/ops_attention.h) against the frozen
// primitive chain (reference_attention.h), compared with memcmp: the merged
// output, every head's probabilities and their adjoints, and the q, k and v
// adjoints, down to the sign of zero and the NaN bits.
//
// The cases run once per kernel tier the host supports
// (kernel_tier_param.h). The chain runs serially; the fused ops run
// serially and on two threads, with batches large enough to split across
// the pool. The static initializer pins PELTA_THREADS=2 (without
// overriding an explicit environment setting) so the pooled run really
// crosses threads.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "autodiff/ops_attention.h"
#include "kernel_tier_param.h"
#include "reference_attention.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "2", /*overwrite=*/0);
  return true;
}();

using ad::reference::attention_nodes;
using ad::reference::fused_attention;
using ad::reference::reference_attention;

bool same_bits(const tensor& x, const tensor& y) {
  return x.same_shape(y) && std::memcmp(x.data().data(), y.data().data(),
                                        static_cast<std::size_t>(x.numel()) * sizeof(float)) == 0;
}

struct attention_inputs {
  tensor q, k, v, seed;
};

// Gaussian q, k, v and output adjoint with every 5th element an exact +0 or
// -0, and, when `poisoned`, one NaN in q and one in v.
attention_inputs make_inputs(std::uint64_t seed, std::int64_t b, std::int64_t t, std::int64_t d,
                             bool poisoned) {
  rng g{seed};
  attention_inputs in{tensor::randn(g, {b, t, d}), tensor::randn(g, {b, t, d}),
                      tensor::randn(g, {b, t, d}), tensor::randn(g, {b, t, d})};
  for (tensor* x : {&in.q, &in.k, &in.v, &in.seed})
    for (std::int64_t i = 0; i < x->numel(); i += 5) (*x)[i] = (i % 2 == 0) ? 0.0f : -0.0f;
  if (poisoned) {
    in.q[d + 1] = std::numeric_limits<float>::quiet_NaN();
    in.v[in.v.numel() - 2] = std::numeric_limits<float>::quiet_NaN();
  }
  return in;
}

struct attention_run {
  tensor merged, dq, dk, dv;
  std::vector<tensor> probs, probs_adjoint;
  std::int64_t nodes = 0;
};

attention_run run(bool fused, const attention_inputs& in, std::int64_t heads, float scale) {
  ad::graph g;
  const ad::node_id q = g.add_input(in.q, "q");
  const ad::node_id k = g.add_input(in.k, "k");
  const ad::node_id v = g.add_input(in.v, "v");
  const attention_nodes n = fused ? fused_attention(g, q, k, v, heads, scale)
                                  : reference_attention(g, q, k, v, heads, scale);
  g.backward_from(n.merged, in.seed);
  attention_run r{g.value(n.merged), g.adjoint(q), g.adjoint(k), g.adjoint(v), {}, {},
                  g.node_count()};
  for (ad::node_id p : n.probs) {
    r.probs.push_back(g.value(p));
    r.probs_adjoint.push_back(g.adjoint(p));
  }
  return r;
}

void expect_same_bits(const attention_run& want, const attention_run& got,
                      const std::string& where) {
  EXPECT_TRUE(same_bits(want.merged, got.merged)) << where << ": merged output";
  EXPECT_TRUE(same_bits(want.dq, got.dq)) << where << ": q adjoint";
  EXPECT_TRUE(same_bits(want.dk, got.dk)) << where << ": k adjoint";
  EXPECT_TRUE(same_bits(want.dv, got.dv)) << where << ": v adjoint";
  ASSERT_EQ(want.probs.size(), got.probs.size()) << where;
  for (std::size_t h = 0; h < want.probs.size(); ++h) {
    EXPECT_TRUE(same_bits(want.probs[h], got.probs[h])) << where << ": probs of head " << h;
    EXPECT_TRUE(same_bits(want.probs_adjoint[h], got.probs_adjoint[h]))
        << where << ": probs adjoint of head " << h;
  }
}

class FusedAttention : public kernel_tier_test {};
INSTANTIATE_TEST_SUITE_P(Tiers, FusedAttention, every_kernel_tier(), kernel_tier_param_name);

TEST_P(FusedAttention, BitEqualsThePrimitiveChain) {
  struct geometry {
    std::int64_t t, d;
  };
  // T = 33 at D = 64 puts a 3-item batch above the pool's split threshold
  // for every head count; D = 12 gives heads of width 12, 6 and 3.
  for (const geometry s : {geometry{33, 64}, geometry{5, 12}})
    for (const std::int64_t heads : {1, 2, 4})
      for (const std::int64_t b : {1, 3})
        for (const bool poisoned : {false, true}) {
          const std::string where = "T=" + std::to_string(s.t) + " D=" + std::to_string(s.d) +
                                    " heads=" + std::to_string(heads) +
                                    " B=" + std::to_string(b) + (poisoned ? " with NaN" : "");
          const attention_inputs in = make_inputs(
              static_cast<std::uint64_t>(1000 * s.t + 10 * heads + b), b, s.t, s.d, poisoned);
          const float scale = 1.0f / std::sqrt(static_cast<float>(s.d / heads));
          const attention_run want = [&] {
            serial_guard guard;
            return run(false, in, heads, scale);
          }();
          const attention_run serial = [&] {
            serial_guard guard;
            return run(true, in, heads, scale);
          }();
          const attention_run two_wide = [&] {
            concurrency_guard guard{2};
            return run(true, in, heads, scale);
          }();
          expect_same_bits(want, serial, where + " at 1 thread");
          expect_same_bits(want, two_wide, where + " at 2 threads");
        }
}

TEST(FusedAttentionShapes, OneNodePerHeadPlusTheMerge) {
  const attention_inputs in = make_inputs(7, 2, 5, 12, false);
  for (const std::int64_t heads : {1, 2, 4}) {
    const std::int64_t leaves = 3;
    EXPECT_EQ(run(true, in, heads, 0.5f).nodes, leaves + heads + 1);
    EXPECT_EQ(run(false, in, heads, 0.5f).nodes, leaves + 8 * heads + (heads > 1 ? 1 : 0));
  }
}

TEST(FusedAttentionShapes, RejectsMismatchedParents) {
  ad::graph g;
  const ad::node_id q = g.add_input(tensor::zeros({2, 5, 12}));
  const ad::node_id k_short = g.add_input(tensor::zeros({2, 4, 12}));
  const ad::node_id v = g.add_input(tensor::zeros({2, 5, 12}));
  EXPECT_THROW(g.add_transform(ad::make_attention_probs(0, 2, 1.0f), {q, k_short}), error);
  EXPECT_THROW(g.add_transform(ad::make_attention_probs(0, 5, 1.0f), {q, v}), error);
  EXPECT_THROW(ad::make_attention_probs(2, 2, 1.0f), error);
  const ad::node_id p = g.add_transform(ad::make_attention_probs(0, 2, 1.0f), {q, v});
  EXPECT_THROW(g.add_transform(ad::make_attention_context(), {p, k_short}), error);
  EXPECT_THROW(g.add_transform(ad::make_attention_context(), {p, p, p, p, p, v}), error);
  EXPECT_EQ(g.value(g.add_transform(ad::make_attention_context(), {p, p, v})).shape(),
            (shape_t{2, 5, 12}));
}

}  // namespace
}  // namespace pelta
