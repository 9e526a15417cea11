// Kernel suite for the blocked GEMM micro-kernels, the activation
// transcendentals, the conv data movement and the scratch arena.
//
// The BlockedGemm, Transcendentals and ConvAdjoint cases run once per kernel
// tier the host supports (kernel_tier_param.h), each against the same
// reference.
//
// The blocked kernels promise bit-identity with the classic i-k-j loop on
// every path (full register tiles, row tails, column tails, any row split a
// parallel chunking might produce) — each case here compares against a
// frozen copy of the pre-blocked reference kernel with memcmp, not a
// tolerance. The static initializer pins PELTA_THREADS=8 (without
// overriding an explicit environment setting) so the pooled runs really
// cross threads even on single-core hosts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "autodiff/graph.h"
#include "autodiff/ops_elementwise.h"
#include "kernel_tier_param.h"
#include "reference_kernels.h"
#include "tensor/conv.h"
#include "tensor/kernel_tier.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/rng.h"
#include "tensor/scratch.h"
#include "tensor/tensor.h"

namespace pelta {
namespace {

const bool k_threads_pinned = [] {
  setenv("PELTA_THREADS", "8", /*overwrite=*/0);
  return true;
}();

using ops::detail::finite_cache;
using ops::detail::gemm_accumulate;
using ops::detail::k_gemm_mr;
using ops::detail::k_gemm_nr;
using ops::reference::reference_gemm;  // THE frozen pre-PR baseline
using ops::reference::reference_gemm_bt;
using ops::reference::reference_im2col;

// Operand with zeros sprinkled in (the skip path must see real zeros).
std::vector<float> random_operand(rng& gen, std::int64_t count, float zero_fraction) {
  std::vector<float> v(static_cast<std::size_t>(count));
  for (float& x : v)
    x = gen.bernoulli(zero_fraction) ? 0.0f : gen.uniform(-1.0f, 1.0f);
  return v;
}

bool bits_equal(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() || std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

class BlockedGemm : public kernel_tier_test {};
INSTANTIATE_TEST_SUITE_P(Tiers, BlockedGemm, every_kernel_tier(), kernel_tier_param_name);

TEST(KernelTier, SelectsTheWidestSupportedTier) {
  using ops::detail::kernel_tier;
  const auto tiers = ops::detail::supported_kernel_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), kernel_tier::baseline);
  for (std::size_t i = 1; i < tiers.size(); ++i) EXPECT_LT(tiers[i - 1], tiers[i]);
  EXPECT_EQ(ops::detail::active_kernel_tier(), tiers.back());
  {
    ops::detail::scoped_kernel_tier guard{kernel_tier::baseline};
    EXPECT_EQ(ops::detail::active_kernel_tier(), kernel_tier::baseline);
  }
  EXPECT_EQ(ops::detail::active_kernel_tier(), tiers.back());
  for (kernel_tier t : {kernel_tier::avx2, kernel_tier::avx512}) {
    if (std::find(tiers.begin(), tiers.end(), t) == tiers.end()) {
      EXPECT_THROW(ops::detail::scoped_kernel_tier{t}, pelta::error) << kernel_tier_name(t);
    }
  }
}

TEST_P(BlockedGemm, BitEqualsReferenceOnEdgeShapes) {
  rng gen{41};
  // Every combination straddling the register tile: empty, single, tile-1,
  // tile, tile+1 for both MR (rows) and NR (columns), plus non-multiples.
  const std::vector<std::int64_t> row_dims{0, 1, 3, 4, 5, 11};
  const std::vector<std::int64_t> k_dims{0, 1, 2, 7, 19};
  const std::vector<std::int64_t> col_dims{0,  1,  3,  static_cast<std::int64_t>(k_gemm_mr) - 1,
                                           4,  5,  15, static_cast<std::int64_t>(k_gemm_nr),
                                           17, 37};
  for (std::int64_t m : row_dims)
    for (std::int64_t k : k_dims)
      for (std::int64_t n : col_dims) {
        const std::vector<float> a = random_operand(gen, m * k, 0.25f);
        const std::vector<float> b = random_operand(gen, k * n, 0.1f);
        std::vector<float> base(static_cast<std::size_t>(m * n));
        for (float& x : base) x = gen.uniform(-0.5f, 0.5f);  // nonzero accumulation base
        std::vector<float> want = base, got = base;
        reference_gemm(a.data(), b.data(), want.data(), m, k, n);
        finite_cache cache;
        gemm_accumulate(a.data(), b.data(), got.data(), m, k, n, cache);
        ASSERT_TRUE(bits_equal(want, got)) << "m=" << m << " k=" << k << " n=" << n;
      }
}

TEST_P(BlockedGemm, RowSliceInvariance) {
  // Chunked invocation over arbitrary row splits must reproduce the whole-
  // matrix call bit for bit — the invariant parallel_for_range relies on.
  rng gen{43};
  const std::int64_t m = 37, k = 23, n = 41;
  const std::vector<float> a = random_operand(gen, m * k, 0.3f);
  const std::vector<float> b = random_operand(gen, k * n, 0.0f);
  std::vector<float> whole(static_cast<std::size_t>(m * n), 0.0f);
  {
    finite_cache cache;
    gemm_accumulate(a.data(), b.data(), whole.data(), m, k, n, cache);
  }
  for (const std::int64_t step : {1, 2, 3, 5, 8, 36}) {
    std::vector<float> sliced(static_cast<std::size_t>(m * n), 0.0f);
    finite_cache cache;
    for (std::int64_t lo = 0; lo < m; lo += step) {
      const std::int64_t len = std::min<std::int64_t>(step, m - lo);
      gemm_accumulate(a.data() + lo * k, b.data(), sliced.data() + lo * n, len, k, n, cache);
    }
    ASSERT_TRUE(bits_equal(whole, sliced)) << "step=" << step;
  }
}

// Regression for the poisoned-update gate: a NaN/Inf B operand must surface
// through a zero A row — the zero-skip fast path is only legal when B is
// fully finite, and the gate is now decided once per call, not per element.
TEST_P(BlockedGemm, PoisonedBPropagatesThroughZeroARow) {
  const std::int64_t m = 3, k = 4, n = 8;
  std::vector<float> a(static_cast<std::size_t>(m * k), 0.0f);
  for (std::int64_t j = 0; j < k; ++j) a[static_cast<std::size_t>(0 * k + j)] = 1.0f;
  // Row 1 and 2 of A are all zeros. B: one NaN, one Inf.
  std::vector<float> b(static_cast<std::size_t>(k * n), 0.5f);
  b[static_cast<std::size_t>(1 * n + 2)] = std::numeric_limits<float>::quiet_NaN();
  b[static_cast<std::size_t>(2 * n + 5)] = std::numeric_limits<float>::infinity();

  std::vector<float> out(static_cast<std::size_t>(m * n), 0.0f);
  finite_cache cache;
  gemm_accumulate(a.data(), b.data(), out.data(), m, k, n, cache);
  // The nonzero row sees NaN (NaN term) and Inf (Inf term); the all-zero
  // rows see NaN in both poisoned columns, because 0 * NaN and 0 * Inf are
  // NaN — the zero-skip fast path must be disabled for this operand.
  EXPECT_TRUE(std::isnan(out[2]));
  EXPECT_TRUE(std::isinf(out[5]));
  for (std::int64_t i = 1; i < m; ++i) {
    EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(i * n + 2)])) << "row " << i;
    EXPECT_TRUE(std::isnan(out[static_cast<std::size_t>(i * n + 5)])) << "row " << i;
  }

  // And the complement: with a fully finite B, zero A rows stay exactly at
  // the accumulation base.
  std::vector<float> b_fin(static_cast<std::size_t>(k * n), 0.5f);
  std::vector<float> out_fin(static_cast<std::size_t>(m * n), 0.0f);
  finite_cache cache_fin;
  gemm_accumulate(a.data(), b_fin.data(), out_fin.data(), m, k, n, cache_fin);
  for (std::int64_t j = 0; j < n; ++j) {
    EXPECT_EQ(out_fin[static_cast<std::size_t>(1 * n + j)], 0.0f);
    EXPECT_EQ(out_fin[static_cast<std::size_t>(2 * n + j)], 0.0f);
  }
}

TEST_P(BlockedGemm, MatmulBitIdenticalAcrossThreadWidths) {
  rng gen{53};
  const std::int64_t m = 130, k = 64, n = 50;  // m deliberately not a tile multiple
  tensor a = tensor::randn(gen, {m, k});
  tensor b = tensor::randn(gen, {k, n});
  tensor pooled = ops::matmul(a, b);
  tensor serial = [&] {
    serial_guard guard;
    return ops::matmul(a, b);
  }();
  tensor two_wide = [&] {
    concurrency_guard guard{2};
    return ops::matmul(a, b);
  }();
  ASSERT_EQ(0, std::memcmp(pooled.data().data(), serial.data().data(),
                           static_cast<std::size_t>(pooled.numel()) * sizeof(float)));
  ASSERT_EQ(0, std::memcmp(pooled.data().data(), two_wide.data().data(),
                           static_cast<std::size_t>(pooled.numel()) * sizeof(float)));
}

// Satellite: elementwise zip/unary now dispatch through the pool above a
// grain threshold. Values must be bit-identical at every thread width.
TEST(Elementwise, BitIdenticalAcrossThreadWidths) {
  rng gen{59};
  const std::int64_t count = (1 << 17) + 7;  // above the grain, odd tail
  tensor a = tensor::randn(gen, {count});
  tensor b = ops::add_scalar(ops::abs(tensor::randn(gen, {count})), 0.5f);

  const auto run_all = [&] {
    std::vector<tensor> r;
    r.push_back(ops::add(a, b));
    r.push_back(ops::sub(a, b));
    r.push_back(ops::mul(a, b));
    r.push_back(ops::div(a, b));
    r.push_back(ops::relu(a));
    r.push_back(ops::exp(a));
    r.push_back(ops::tanh(a));
    r.push_back(ops::sign(a));
    r.push_back(ops::add_scalar(a, 0.25f));
    r.push_back(ops::mul_scalar(a, -1.5f));
    return r;
  };
  const std::vector<tensor> pooled = run_all();
  serial_guard guard;
  const std::vector<tensor> serial = run_all();
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    ASSERT_TRUE(pooled[i].same_shape(serial[i]));
    ASSERT_EQ(0, std::memcmp(pooled[i].data().data(), serial[i].data().data(),
                             static_cast<std::size_t>(pooled[i].numel()) * sizeof(float)))
        << "op index " << i;
  }
}

// ---- activation transcendentals ----------------------------------------------
//
// exp, tanh and the GELU loops are in-repo tier kernels. Every tier must give
// the baseline tier's bits, stay within 2 ulp of a double-precision
// reference, and keep the IEEE edge cases: exact +0 below the normal range,
// tanh(+-inf) = +-1, NaN in -> NaN out.

class Transcendentals : public kernel_tier_test {};
INSTANTIATE_TEST_SUITE_P(Tiers, Transcendentals, every_kernel_tier(), kernel_tier_param_name);

constexpr float k_inf = std::numeric_limits<float>::infinity();
constexpr float k_nan = std::numeric_limits<float>::quiet_NaN();

float float_from_bits(std::uint32_t u) {
  float f = 0.0f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Position on the monotone integer line of floats: adjacent floats differ
// by 1, and +0 / -0 share 0.
std::int64_t float_ordinal(float f) {
  std::int32_t i = 0;
  std::memcpy(&i, &f, sizeof(i));
  return i < 0 ? -static_cast<std::int64_t>(i & 0x7fffffff) : i;
}

std::int64_t ulp_distance(float x, float y) {
  const std::int64_t d = float_ordinal(x) - float_ordinal(y);
  return d < 0 ? -d : d;
}

// Every finite float at a fixed bit stride (about 1M of them, all binades,
// both signs), plus a dense uniform sample of the range activations live in.
std::vector<float> sweep_inputs() {
  std::vector<float> x;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    const float f = float_from_bits(static_cast<std::uint32_t>(u));
    if (std::isfinite(f)) x.push_back(f);
  }
  rng gen{61};
  for (int i = 0; i < (1 << 16); ++i) x.push_back(gen.uniform(-20.0f, 20.0f));
  return x;
}

tensor vector_tensor(const std::vector<float>& v) {
  return tensor{shape_t{static_cast<std::int64_t>(v.size())}, v};
}

void expect_same_bits(const tensor& got, const tensor& want, const char* what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  EXPECT_EQ(0, std::memcmp(got.data().data(), want.data().data(),
                           static_cast<std::size_t>(got.numel()) * sizeof(float)))
      << what << ": bits differ";
}

TEST_P(Transcendentals, BitEqualToTheBaselineTier) {
  const tensor x = vector_tensor(sweep_inputs());
  rng gen{67};
  const tensor g = tensor::randn(gen, x.shape());
  const auto& base = ops::detail::tier_baseline::fns;
  const auto n = x.numel();
  tensor want_exp{x.shape()}, want_tanh{x.shape()}, want_gelu{x.shape()}, want_dgelu{x.shape()};
  base.exp_shifted(x.data().data(), 0.0f, want_exp.data().data(), n);
  base.tanh(x.data().data(), want_tanh.data().data(), n);
  base.gelu(x.data().data(), want_gelu.data().data(), n);
  base.gelu_backward(x.data().data(), g.data().data(), want_dgelu.data().data(), n);
  expect_same_bits(ops::exp(x), want_exp, "exp");
  expect_same_bits(ops::tanh(x), want_tanh, "tanh");
  expect_same_bits(ops::gelu(x), want_gelu, "gelu");
  expect_same_bits(ops::gelu_backward(g, x), want_dgelu, "gelu_backward");
}

TEST_P(Transcendentals, WithinTwoUlpOfDoublePrecision) {
  const std::vector<float> xs = sweep_inputs();
  const tensor x = vector_tensor(xs);
  const tensor e = ops::exp(x);
  const tensor t = ops::tanh(x);
  std::int64_t worst_exp = 0, worst_tanh = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double xd = xs[i];
    // Below FLT_MIN's range exp flushes to +0 (the next test), so the ulp
    // bound covers the normal range only.
    if (std::exp(xd) >= std::numeric_limits<float>::min()) {
      const std::int64_t d = ulp_distance(e[static_cast<std::int64_t>(i)],
                                          static_cast<float>(std::exp(xd)));
      worst_exp = std::max(worst_exp, d);
      EXPECT_LE(d, 2) << "exp(" << xs[i] << ")";
    }
    const std::int64_t d = ulp_distance(t[static_cast<std::int64_t>(i)],
                                        static_cast<float>(std::tanh(xd)));
    worst_tanh = std::max(worst_tanh, d);
    EXPECT_LE(d, 2) << "tanh(" << xs[i] << ")";
    if (HasFailure()) return;  // one report, not a million
  }
  RecordProperty("worst_exp_ulp", static_cast<int>(worst_exp));
  RecordProperty("worst_tanh_ulp", static_cast<int>(worst_tanh));
}

TEST_P(Transcendentals, ExpFlushesToExactZeroBelowTheNormalRange) {
  const std::vector<float> below{-87.3366f, -87.5f, -100.0f, -1e4f, -1e30f,
                                 -std::numeric_limits<float>::max(), -k_inf};
  const tensor e = ops::exp(vector_tensor(below));
  for (std::int64_t i = 0; i < e.numel(); ++i) {
    EXPECT_EQ(e[i], 0.0f) << "exp(" << below[static_cast<std::size_t>(i)] << ")";
    EXPECT_FALSE(std::signbit(e[i])) << "exp(" << below[static_cast<std::size_t>(i)] << ")";
  }
  // The smallest input above the cut still lands in the normal range.
  EXPECT_GE(ops::exp(vector_tensor({-87.33654f}))[0], std::numeric_limits<float>::min());
  const tensor big = ops::exp(vector_tensor({88.8f, 1e30f, k_inf}));
  for (std::int64_t i = 0; i < big.numel(); ++i) EXPECT_EQ(big[i], k_inf);
  EXPECT_EQ(ops::exp(vector_tensor({0.0f, -0.0f}))[1], 1.0f);

  // A masked softmax entry (-inf) gets exactly zero weight, the others
  // still sum to one.
  ad::graph gr;
  const ad::node_id in = gr.add_input(tensor{shape_t{2, 4}, {1.0f, -k_inf, 0.5f, -2.0f,  //
                                                             -k_inf, 3.0f, -k_inf, 2.0f}});
  const tensor& p = gr.value(gr.add_transform(ad::make_softmax_lastdim(), {in}));
  for (std::int64_t i : {1, 4, 6}) EXPECT_EQ(p[i], 0.0f) << "softmax entry " << i;
  for (std::int64_t r = 0; r < 2; ++r)
    EXPECT_NEAR(p[4 * r] + p[4 * r + 1] + p[4 * r + 2] + p[4 * r + 3], 1.0f, 1e-6f);
}

TEST_P(Transcendentals, NanPropagatesAndTanhSaturates) {
  const tensor nan = vector_tensor({k_nan, -k_nan});
  for (const tensor& y : {ops::exp(nan), ops::tanh(nan), ops::gelu(nan),
                          ops::gelu_backward(tensor::ones(nan.shape()), nan)})
    for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_TRUE(std::isnan(y[i]));
  // A NaN upstream gradient surfaces too, on a perfectly finite x.
  const tensor dg = ops::gelu_backward(vector_tensor({k_nan, k_nan}), vector_tensor({0.5f, -3.0f}));
  for (std::int64_t i = 0; i < dg.numel(); ++i) EXPECT_TRUE(std::isnan(dg[i]));

  const tensor t = ops::tanh(vector_tensor({k_inf, -k_inf, 50.0f, -50.0f, 0.0f, -0.0f}));
  EXPECT_EQ(t[0], 1.0f);
  EXPECT_EQ(t[1], -1.0f);
  EXPECT_EQ(t[2], 1.0f);
  EXPECT_EQ(t[3], -1.0f);
  EXPECT_EQ(t[4], 0.0f);
  EXPECT_TRUE(std::signbit(t[5]));  // odd: tanh(-0) = -0
}

TEST_P(Transcendentals, GeluBitIdenticalAcrossThreadWidths) {
  rng gen{71};
  const std::int64_t count = (1 << 17) + 7;  // above the elementwise grain, odd tail
  const tensor x = tensor::randn(gen, {count}, 0.0f, 3.0f);
  const tensor g = tensor::randn(gen, {count});
  const tensor fwd = ops::gelu(x);
  const tensor bwd = ops::gelu_backward(g, x);
  serial_guard guard;
  expect_same_bits(ops::gelu(x), fwd, "serial gelu");
  expect_same_bits(ops::gelu_backward(g, x), bwd, "serial gelu_backward");
}

// Direct-convolution reference accumulating in the same (ci, ky, kx) order
// as the im2col GEMM: values must match exactly (float ==, padding
// contributes exact zero terms).
tensor reference_conv2d(const tensor& input, const tensor& weight, const tensor& bias,
                        std::int64_t stride, std::int64_t pad) {
  const std::int64_t b = input.size(0), c = input.size(1), h = input.size(2), w = input.size(3);
  const std::int64_t oc = weight.size(0), kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - kw) / stride + 1;
  tensor out{shape_t{b, oc, oh, ow}};
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t o = 0; o < oc; ++o)
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t x = 0; x < ow; ++x) {
          float acc = bias.numel() == oc ? bias[o] : 0.0f;
          for (std::int64_t ci = 0; ci < c; ++ci)
            for (std::int64_t ky = 0; ky < kh; ++ky)
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t iy = y * stride - pad + ky;
                const std::int64_t ix = x * stride - pad + kx;
                const float v =
                    (iy < 0 || iy >= h || ix < 0 || ix >= w) ? 0.0f : input.at(n, ci, iy, ix);
                acc += weight.at(o, ci, ky, kx) * v;
              }
          out.at(n, o, y, x) = acc;
        }
  return out;
}

// Conv geometries whose strides and paddings clip every edge (including
// pad >= kernel, whose first/last taps are entirely out of bounds), with
// non-square images and kernels.
struct conv_case {
  std::int64_t c, h, w, oc, kh, kw, stride, pad;
};
const conv_case k_fringe_cases[] = {
    {1, 5, 5, 2, 3, 3, 1, 0}, {2, 6, 6, 3, 3, 3, 1, 1}, {2, 7, 5, 3, 3, 3, 2, 1},
    {1, 8, 8, 2, 5, 5, 1, 2}, {2, 9, 7, 2, 3, 3, 3, 2}, {1, 6, 6, 2, 3, 3, 1, 3},
    {2, 5, 5, 2, 1, 1, 1, 0}, {1, 7, 7, 2, 3, 1, 2, 1}, {1, 4, 4, 1, 4, 4, 4, 2},
};

// Covers the fringe-only zero-fill in im2col.
TEST(Im2col, FringeFillMatchesDirectConvolution) {
  rng gen{61};
  for (const conv_case& cs : k_fringe_cases) {
    tensor input = tensor::randn(gen, {2, cs.c, cs.h, cs.w});
    tensor weight = tensor::randn(gen, {cs.oc, cs.c, cs.kh, cs.kw});
    tensor bias = tensor::rand_uniform(gen, {cs.oc}, 0.1f, 0.9f);
    tensor got = ops::conv2d(input, weight, bias, cs.stride, cs.pad);
    tensor want = reference_conv2d(input, weight, bias, cs.stride, cs.pad);
    ASSERT_TRUE(got.same_shape(want));
    auto pg = got.data();
    auto pw = want.data();
    for (std::size_t i = 0; i < pg.size(); ++i)
      ASSERT_EQ(pg[i], pw[i]) << "stride=" << cs.stride << " pad=" << cs.pad << " i=" << i;
  }
}

// ---- conv adjoints -------------------------------------------------------------
//
// conv2d's two backward passes against references that share none of the
// library's data movement: backward-input against a direct scatter of every
// output gradient through the kernel taps, backward-weight against the
// frozen im2col + reference_gemm_bt formulation. Both compare with memcmp.
// The gradients are ReLU-sparse and a fifth of the weights are zero, so the
// zero-skip gate opens (backward-weight: zeros in grad_out; backward-input:
// zeros in the weights); the poisoned round puts a NaN into one input image
// and one gradient image, which must close the gate for that image.

class ConvAdjoint : public kernel_tier_test {};
INSTANTIATE_TEST_SUITE_P(Tiers, ConvAdjoint, every_kernel_tier(), kernel_tier_param_name);

struct conv_operands {
  tensor input, weight, grad_out;
};

conv_operands adjoint_operands(rng& gen, const conv_case& cs, bool poisoned) {
  const std::int64_t batch = 3;
  const std::int64_t oh = (cs.h + 2 * cs.pad - cs.kh) / cs.stride + 1;
  const std::int64_t ow = (cs.w + 2 * cs.pad - cs.kw) / cs.stride + 1;
  conv_operands o{tensor::randn(gen, {batch, cs.c, cs.h, cs.w}),
                  tensor::randn(gen, {cs.oc, cs.c, cs.kh, cs.kw}),
                  ops::relu(tensor::randn(gen, {batch, cs.oc, oh, ow}))};
  for (float& v : o.weight.data())
    if (gen.bernoulli(0.2f)) v = 0.0f;
  if (poisoned) {
    o.input.at(1, cs.c - 1, cs.h / 2, cs.w / 2) = k_nan;
    o.grad_out.at(2, cs.oc - 1, oh / 2, ow / 2) = k_nan;
  }
  return o;
}

// dL/dinput by direct scatter: each in-bounds (tap, output pixel) pair adds
// its sum over output channels. The per-tap sum runs in ascending channel
// order from +0 and skips zero weights exactly when the library's GEMM gate
// would (a zero in the weights and a finite gradient image), so the bits
// must match the GEMM + col2im path.
tensor direct_conv2d_backward_input(const tensor& grad_out, const tensor& weight,
                                    std::int64_t stride, std::int64_t pad,
                                    const shape_t& input_shape) {
  const std::int64_t b = input_shape[0], c = input_shape[1], h = input_shape[2],
                     w = input_shape[3];
  const std::int64_t oc = weight.size(0), kh = weight.size(2), kw = weight.size(3);
  const std::int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  bool weight_has_zero = false;
  for (const float v : weight.data()) weight_has_zero |= v == 0.0f;
  tensor grad_in{input_shape};
  for (std::int64_t n = 0; n < b; ++n) {
    bool image_finite = true;
    for (std::int64_t i = 0; i < oc * oh * ow; ++i)
      image_finite &= std::isfinite(grad_out[n * oc * oh * ow + i]);
    const bool skip = weight_has_zero && image_finite;
    for (std::int64_t ci = 0; ci < c; ++ci)
      for (std::int64_t ky = 0; ky < kh; ++ky)
        for (std::int64_t kx = 0; kx < kw; ++kx)
          for (std::int64_t y = 0; y < oh; ++y)
            for (std::int64_t x = 0; x < ow; ++x) {
              const std::int64_t iy = y * stride - pad + ky, ix = x * stride - pad + kx;
              if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
              float acc = 0.0f;
              for (std::int64_t o = 0; o < oc; ++o) {
                const float wv = weight.at(o, ci, ky, kx);
                if (skip && wv == 0.0f) continue;
                acc = ops::detail::fmadd(wv, grad_out.at(n, o, y, x), acc);
              }
              grad_in.at(n, ci, iy, ix) += acc;
            }
  }
  return grad_in;
}

// dL/dweight the earlier way: im2col per image, then the frozen transposed-B
// reference GEMM into one grad_w, images in batch order.
tensor im2col_conv2d_backward_weight(const tensor& grad_out, const tensor& input,
                                     std::int64_t stride, std::int64_t pad,
                                     const shape_t& weight_shape) {
  const std::int64_t b = input.size(0), c = input.size(1), h = input.size(2), w = input.size(3);
  const std::int64_t oc = weight_shape[0], kh = weight_shape[2], kw = weight_shape[3];
  const std::int64_t oh = grad_out.size(2), ow = grad_out.size(3);
  const std::int64_t krows = c * kh * kw, spatial = oh * ow;
  std::vector<float> cols(static_cast<std::size_t>(krows * spatial)), bt_storage;
  tensor grad_w{weight_shape};
  for (std::int64_t n = 0; n < b; ++n) {
    reference_im2col(input.data().data() + n * c * h * w, cols.data(), c, h, w, kh, kw, stride,
                     pad, oh, ow);
    reference_gemm_bt(grad_out.data().data() + n * oc * spatial, cols.data(),
                      grad_w.data().data(), oc, spatial, krows, bt_storage);
  }
  return grad_w;
}

TEST_P(ConvAdjoint, BackwardInputBitEqualsDirectScatter) {
  rng gen{79};
  for (const bool poisoned : {false, true})
    for (const conv_case& cs : k_fringe_cases) {
      const conv_operands o = adjoint_operands(gen, cs, poisoned);
      const tensor got =
          ops::conv2d_backward_input(o.grad_out, o.weight, cs.stride, cs.pad, o.input.shape());
      const tensor want =
          direct_conv2d_backward_input(o.grad_out, o.weight, cs.stride, cs.pad, o.input.shape());
      expect_same_bits(got, want, "conv2d_backward_input");
      ASSERT_FALSE(HasFailure()) << "stride=" << cs.stride << " pad=" << cs.pad << " c=" << cs.c
                                 << " h=" << cs.h << " w=" << cs.w << " poisoned=" << poisoned;
    }
}

TEST_P(ConvAdjoint, BackwardWeightBitEqualsIm2colAndFrozenGemm) {
  rng gen{83};
  for (const bool poisoned : {false, true})
    for (const conv_case& cs : k_fringe_cases) {
      const conv_operands o = adjoint_operands(gen, cs, poisoned);
      const tensor got =
          ops::conv2d_backward_weight(o.grad_out, o.input, cs.stride, cs.pad, o.weight.shape());
      const tensor want =
          im2col_conv2d_backward_weight(o.grad_out, o.input, cs.stride, cs.pad, o.weight.shape());
      expect_same_bits(got, want, "conv2d_backward_weight");
      ASSERT_FALSE(HasFailure()) << "stride=" << cs.stride << " pad=" << cs.pad << " c=" << cs.c
                                 << " h=" << cs.h << " w=" << cs.w << " poisoned=" << poisoned;
    }
}

// relu's backward is the select x > 0 ? g : 0 for every x, NaN included,
// whatever the gradient holds (NaN, -0 and +0 pass through unchanged).
TEST(ReluBackward, BitEqualsTheBranchyLoop) {
  rng gen{89};
  std::vector<float> x{k_nan, -k_nan, 0.0f, -0.0f, k_inf, -k_inf, 1e-45f, -1e-45f};
  std::vector<float> g{1.0f, 1.0f, 1.0f, 1.0f, -0.0f, 1.0f, k_nan, k_nan};
  while (x.size() < 4099) {  // odd length: vector body plus a scalar tail
    x.push_back(gen.bernoulli(0.05f) ? 0.0f : gen.uniform(-1.0f, 1.0f));
    g.push_back(gen.bernoulli(0.05f) ? -0.0f : gen.uniform(-1.0f, 1.0f));
  }
  ad::graph gr;
  const ad::node_id in = gr.add_input(vector_tensor(x));
  const ad::node_id y = gr.add_transform(ad::make_relu(), {in});
  gr.backward_from(y, vector_tensor(g));
  std::vector<float> want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > 0.0f)
      want[i] = g[i];
    else
      want[i] = 0.0f;
  }
  expect_same_bits(gr.adjoint(in), vector_tensor(want), "relu backward");
}

// Satellite: steady state performs zero allocations — the second identical
// conv2d call sequence must not grow any arena. Forced serial so every
// checkout lands on this thread's arena, where the accessors can see it.
TEST(ScratchArena, SecondConvCallAllocatesNothing) {
  serial_guard guard;
  rng gen{67};
  tensor input = tensor::randn(gen, {2, 3, 12, 12});
  tensor weight = tensor::randn(gen, {8, 3, 3, 3});
  tensor bias = tensor::rand_uniform(gen, {8}, -0.1f, 0.1f);

  const auto run_once = [&] {
    tensor out = ops::conv2d(input, weight, bias, 1, 1);
    tensor grad_out = tensor::ones(out.shape());
    ops::conv2d_backward_input(grad_out, weight, 1, 1, input.shape());
    ops::conv2d_backward_weight(grad_out, input, 1, 1, weight.shape());
  };

  run_once();
  scratch_arena& arena = scratch_arena::local();
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_GT(arena.high_water_floats(), 0u);
  const std::size_t allocs_after_warmup = arena.block_allocations();
  run_once();
  run_once();
  EXPECT_EQ(arena.block_allocations(), allocs_after_warmup)
      << "steady-state conv2d calls must reuse the arena high-water block";
  EXPECT_EQ(arena.outstanding(), 0u);
  EXPECT_GE(arena.capacity_floats(), arena.high_water_floats());
}

TEST(ScratchArena, LifoGrowthPreservesLiveClaims) {
  scratch_arena arena;  // private instance: counters start at zero
  {
    scratch_buffer small = arena.take(64);
    for (std::size_t i = 0; i < small.size(); ++i) small.data()[i] = static_cast<float>(i);
    const float* small_ptr = small.data();
    // Force growth while `small` is live: the new claim must come from a
    // fresh block and `small` must stay in place, contents intact.
    scratch_buffer big = arena.take(1 << 20);
    big.data()[0] = 1.0f;  // the claim is real, writable memory
    EXPECT_EQ(small.data(), small_ptr);
    for (std::size_t i = 0; i < small.size(); ++i)
      EXPECT_EQ(small.data()[i], static_cast<float>(i));
    EXPECT_EQ(arena.outstanding(), 2u);
    EXPECT_GE(arena.block_allocations(), 2u);
  }
  // All claims back: the arena consolidates to one high-water block and
  // an identical take pattern no longer allocates.
  EXPECT_EQ(arena.outstanding(), 0u);
  const std::size_t allocs = arena.block_allocations();
  {
    scratch_buffer small = arena.take(64);
    scratch_buffer big = arena.take(1 << 20);
    EXPECT_EQ(arena.block_allocations(), allocs);
  }
  EXPECT_EQ(arena.block_allocations(), allocs);
}

TEST(ScratchArena, EmptyTakeAndMoveSemantics) {
  scratch_arena arena;
  scratch_buffer empty = arena.take(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(arena.outstanding(), 0u);

  scratch_buffer a = arena.take(10);
  scratch_buffer moved = std::move(a);
  EXPECT_EQ(moved.size(), 10u);
  EXPECT_EQ(arena.outstanding(), 1u);  // the claim followed the move
}

}  // namespace
}  // namespace pelta
