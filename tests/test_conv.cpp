// Convolution / pooling kernels, including backward-vs-finite-difference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "autodiff/gradcheck.h"
#include "tensor/conv.h"
#include "tensor/kernels.h"  // detail::fmadd — the accumulation-policy reference
#include "tensor/ops.h"

#include "reference_kernels.h"

namespace pelta {
namespace {

TEST(Conv2d, IdentityKernelReproducesInput) {
  rng g{1};
  tensor x = tensor::randn(g, {1, 1, 5, 5});
  tensor w = tensor::zeros({1, 1, 3, 3});
  w.at(0, 0, 1, 1) = 1.0f;  // delta kernel
  tensor y = ops::conv2d(x, w, tensor{shape_t{0}}, 1, 1);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

TEST(Conv2d, KnownValue) {
  // 2x2 input, 2x2 all-ones kernel, no padding -> single sum.
  tensor x{{1, 1, 2, 2}, {1, 2, 3, 4}};
  tensor w = tensor::ones({1, 1, 2, 2});
  tensor y = ops::conv2d(x, w, tensor{shape_t{0}}, 1, 0);
  EXPECT_EQ(y.shape(), (shape_t{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10.0f);
}

TEST(Conv2d, BiasIsAdded) {
  tensor x = tensor::zeros({1, 2, 3, 3});
  tensor w = tensor::zeros({4, 2, 3, 3});
  tensor b{{4}, {1, 2, 3, 4}};
  tensor y = ops::conv2d(x, w, b, 1, 1);
  EXPECT_EQ(y.shape(), (shape_t{1, 4, 3, 3}));
  EXPECT_FLOAT_EQ(y.at(0, 2, 1, 1), 3.0f);
}

TEST(Conv2d, StrideReducesResolution) {
  rng g{2};
  tensor x = tensor::randn(g, {2, 3, 8, 8});
  tensor w = tensor::randn(g, {5, 3, 3, 3});
  tensor y = ops::conv2d(x, w, tensor{shape_t{0}}, 2, 1);
  EXPECT_EQ(y.shape(), (shape_t{2, 5, 4, 4}));
}

TEST(Conv2d, ChannelMismatchThrows) {
  tensor x = tensor::zeros({1, 3, 4, 4});
  tensor w = tensor::zeros({2, 4, 3, 3});
  EXPECT_THROW(ops::conv2d(x, w, tensor{shape_t{0}}, 1, 1), error);
}

TEST(Conv2d, BackwardInputMatchesFiniteDifference) {
  rng g{3};
  const tensor x = tensor::randn(g, {1, 2, 4, 4});
  const tensor w = tensor::randn(g, {3, 2, 3, 3});
  const tensor seed = tensor::randn(g, {1, 3, 4, 4});

  const auto f = [&](const tensor& probe) {
    return ops::dot(ops::conv2d(probe, w, tensor{shape_t{0}}, 1, 1), seed);
  };
  const tensor numeric = ad::numeric_grad(f, x, 1e-2f);
  const tensor analytic = ops::conv2d_backward_input(seed, w, 1, 1, x.shape());
  EXPECT_LT(ad::max_rel_error(analytic, numeric), 0.05f);
}

TEST(Conv2d, BackwardWeightMatchesFiniteDifference) {
  rng g{4};
  const tensor x = tensor::randn(g, {1, 2, 4, 4});
  const tensor w = tensor::randn(g, {3, 2, 3, 3});
  const tensor seed = tensor::randn(g, {1, 3, 4, 4});

  const auto f = [&](const tensor& probe) {
    return ops::dot(ops::conv2d(x, probe, tensor{shape_t{0}}, 1, 1), seed);
  };
  const tensor numeric = ad::numeric_grad(f, w, 1e-2f);
  const tensor analytic = ops::conv2d_backward_weight(seed, x, 1, 1, w.shape());
  EXPECT_LT(ad::max_rel_error(analytic, numeric), 0.05f);
}

TEST(Conv2d, BackwardBiasSumsOverSpatialAndBatch) {
  tensor go = tensor::ones({2, 3, 4, 4});
  tensor gb = ops::conv2d_backward_bias(go);
  EXPECT_EQ(gb.shape(), (shape_t{3}));
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(gb[i], 32.0f);
}

TEST(Conv2d, BackwardBiasIsExactAcrossLargeBatchCancellation) {
  // Regression for the per-image float re-narrowing the R1 lint rule
  // surfaced: summing each image in double but folding into grad_b in float
  // lost small contributions between large cancelling ones across the
  // batch ({2^25, 1, -2^25} summed that way yields 0). One double
  // accumulator per channel across the whole batch keeps the exact 1.
  tensor go{{3, 1, 1, 1}, {33554432.0f, 1.0f, -33554432.0f}};
  tensor gb = ops::conv2d_backward_bias(go);
  ASSERT_EQ(gb.shape(), (shape_t{1}));
  EXPECT_FLOAT_EQ(gb[0], 1.0f);
}

TEST(Conv2d, StridedBackwardMatchesFiniteDifference) {
  rng g{5};
  const tensor x = tensor::randn(g, {1, 2, 6, 6});
  const tensor w = tensor::randn(g, {3, 2, 3, 3});
  const tensor seed = tensor::randn(g, {1, 3, 3, 3});
  const auto f = [&](const tensor& probe) {
    return ops::dot(ops::conv2d(probe, w, tensor{shape_t{0}}, 2, 1), seed);
  };
  const tensor numeric = ad::numeric_grad(f, x, 1e-2f);
  const tensor analytic = ops::conv2d_backward_input(seed, w, 2, 1, x.shape());
  EXPECT_LT(ad::max_rel_error(analytic, numeric), 0.05f);
}

TEST(ConvTranspose, UpsamplesGeometry) {
  rng g{6};
  tensor x = tensor::randn(g, {1, 4, 4, 4});
  tensor w = tensor::randn(g, {4, 3, 4, 4});
  tensor y = ops::conv2d_transpose(x, w, 4, 0);
  EXPECT_EQ(y.shape(), (shape_t{1, 3, 16, 16}));
}

TEST(ConvTranspose, Stride1KeepsShapeWithPad1Kernel3) {
  rng g{7};
  tensor x = tensor::randn(g, {1, 5, 8, 8});
  tensor w = tensor::randn(g, {5, 3, 3, 3});
  tensor y = ops::conv2d_transpose(x, w, 1, 1);
  EXPECT_EQ(y.shape(), (shape_t{1, 3, 8, 8}));
}

TEST(ConvTranspose, IsAdjointOfConv) {
  // <conv(x), y> == <x, conv_transpose(y)> for matching geometry.
  rng g{8};
  const tensor x = tensor::randn(g, {1, 2, 6, 6});
  const tensor w = tensor::randn(g, {3, 2, 3, 3});  // conv weight [OC,C,KH,KW]
  const tensor y = tensor::randn(g, {1, 3, 6, 6});

  const tensor cx = ops::conv2d(x, w, tensor{shape_t{0}}, 1, 1);
  // The conv weight [OC,C,KH,KW] reinterpreted as a transposed-conv weight
  // [C'=OC, OC'=C, KH, KW] yields the exact adjoint — no kernel flip needed
  // with this layout convention.
  const tensor ty = ops::conv2d_transpose(y, w, 1, 1);
  EXPECT_NEAR(ops::dot(cx, y), ops::dot(x, ty), 1e-3f);
}

TEST(ConvTranspose, FollowsTheFmaddPolicy) {
  // The scatter accumulation must round exactly like ops::detail::fmadd in
  // the implementation's loop order (R1): a raw `out += v * w` would let
  // -ffp-contract fuse it on FMA targets, making the transpose round
  // differently per build flag while conv2d stays mul+add.
  rng g{11};
  const tensor x = tensor::randn(g, {1, 2, 2, 2});
  const tensor w = tensor::randn(g, {2, 2, 2, 2});  // [C, OC, KH, KW]
  const tensor y = ops::conv2d_transpose(x, w, 1, 0);
  ASSERT_EQ(y.shape(), (shape_t{1, 2, 3, 3}));

  tensor expect = tensor::zeros(y.shape());
  for (std::int64_t ci = 0; ci < 2; ++ci)
    for (std::int64_t iy = 0; iy < 2; ++iy)
      for (std::int64_t ix = 0; ix < 2; ++ix) {
        const float v = x.at(0, ci, iy, ix);
        for (std::int64_t o = 0; o < 2; ++o)
          for (std::int64_t ky = 0; ky < 2; ++ky)
            for (std::int64_t kx = 0; kx < 2; ++kx)
              expect.at(0, o, iy + ky, ix + kx) = ops::detail::fmadd(
                  v, w.at(ci, o, ky, kx), expect.at(0, o, iy + ky, ix + kx));
      }
  for (std::int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y[i], expect[i]);
}

TEST(ConvTranspose, MatchesTheFrozenReferenceBitwise) {
  // The per-pixel tap windows must give the branchy loop's bits: padded,
  // overlapping (stride < kernel), stride == kernel and a rectangular
  // input whose padding cuts taps on every side. Inputs hold exact zeros
  // and -0 (skipped, so a NaN weight behind them stays out of the output)
  // and the weights hold NaN.
  struct geometry {
    std::int64_t b, c, h, w, oc, k, stride, pad;
  };
  const geometry cases[] = {
      {2, 3, 5, 5, 2, 3, 1, 1},  // padded, same size
      {1, 2, 4, 4, 3, 3, 2, 1},  // overlapping windows
      {1, 4, 2, 2, 3, 4, 4, 0},  // stride == kernel (the ViT upsampler)
      {2, 2, 3, 6, 2, 5, 2, 2},  // rectangular, wide padding
  };
  rng g{12};
  for (const geometry& s : cases) {
    tensor x = tensor::randn(g, {s.b, s.c, s.h, s.w});
    tensor w = tensor::randn(g, {s.c, s.oc, s.k, s.k});
    for (std::int64_t i = 0; i < x.numel(); i += 3) x[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    w[0] = std::numeric_limits<float>::quiet_NaN();
    w[w.numel() - 1] = std::numeric_limits<float>::quiet_NaN();
    const tensor y = ops::conv2d_transpose(x, w, s.stride, s.pad);
    tensor expect = tensor::zeros(y.shape());
    ops::reference::reference_conv2d_transpose(x.data().data(), w.data().data(),
                                               expect.data().data(), s.b, s.c, s.h, s.w, s.oc,
                                               s.k, s.k, s.stride, s.pad);
    ASSERT_EQ(y.shape(), expect.shape());
    EXPECT_EQ(std::memcmp(y.data().data(), expect.data().data(),
                          static_cast<std::size_t>(y.numel()) * sizeof(float)),
              0)
        << "geometry c=" << s.c << " " << s.h << "x" << s.w << " k=" << s.k
        << " stride=" << s.stride << " pad=" << s.pad;
  }
  // An all-zero input touches no weight: the output is all +0.
  const tensor zero_in = tensor::zeros({1, 2, 3, 3});
  tensor nan_w = tensor::zeros({2, 2, 3, 3});
  for (float& v : nan_w.data()) v = std::numeric_limits<float>::quiet_NaN();
  const tensor zero_out = ops::conv2d_transpose(zero_in, nan_w, 2, 1);
  for (float v : zero_out.data()) {
    EXPECT_EQ(v, 0.0f);
    EXPECT_FALSE(std::signbit(v));
  }
}

TEST(MaxPool, ForwardAndIndices) {
  tensor x{{1, 1, 2, 2}, {1, 5, 3, 2}};
  auto r = ops::maxpool2x2(x);
  EXPECT_EQ(r.output.shape(), (shape_t{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(r.output[0], 5.0f);
  EXPECT_FLOAT_EQ(r.indices[0], 1.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  tensor x{{1, 1, 2, 2}, {1, 5, 3, 2}};
  auto r = ops::maxpool2x2(x);
  tensor go = tensor::full({1, 1, 1, 1}, 2.0f);
  tensor gi = ops::maxpool2x2_backward(go, r.indices, x.shape());
  EXPECT_FLOAT_EQ(gi[0], 0.0f);
  EXPECT_FLOAT_EQ(gi[1], 2.0f);
}

// A window of only -inf or NaN still pools to a value of that window, and
// its index stays inside it, so the backward pass routes the gradient there
// and not to element 0 of the tensor.
TEST(MaxPool, NonFiniteWindowKeepsItsValueAndIndex) {
  constexpr float inf = std::numeric_limits<float>::infinity();
  constexpr float nan = std::numeric_limits<float>::quiet_NaN();
  // [1, 2, 2, 4]: channel 0 is ordinary, channel 1 holds an all -inf window
  // and an all NaN window.
  tensor x{{1, 2, 2, 4}, {1, 2, 3, 4,  //
                          5, 6, 7, 8,  //
                          -inf, -inf, nan, nan,  //
                          -inf, -inf, nan, nan}};
  const auto window_of = [](std::int64_t flat) {  // (channel, window x) of a flat index
    return std::pair<std::int64_t, std::int64_t>{flat / 8, (flat % 4) / 2};
  };
  auto r = ops::maxpool2x2(x);
  ASSERT_EQ(r.output.shape(), (shape_t{1, 2, 1, 2}));
  EXPECT_EQ(r.output[0], 6.0f);
  EXPECT_EQ(r.output[1], 8.0f);
  EXPECT_EQ(r.output[2], -inf);
  EXPECT_TRUE(std::isnan(r.output[3]));
  for (std::int64_t i = 0; i < 4; ++i) {
    const auto idx = static_cast<std::int64_t>(r.indices[i]);
    EXPECT_EQ(window_of(idx), (std::pair<std::int64_t, std::int64_t>{i / 2, i % 2}))
        << "output " << i << " points at element " << idx;
  }

  tensor go{{1, 2, 1, 2}, {1.0f, 2.0f, 3.0f, 4.0f}};
  tensor gi = ops::maxpool2x2_backward(go, r.indices, x.shape());
  for (std::int64_t i = 0; i < gi.numel(); ++i) {
    if (gi[i] == 0.0f) continue;
    const auto [ch, win] = window_of(i);
    EXPECT_EQ(gi[i], go[ch * 2 + win]) << "gradient landed on element " << i;
  }
  double total = 0.0;
  for (std::int64_t i = 0; i < gi.numel(); ++i) total += gi[i];
  EXPECT_EQ(total, 10.0);
}

TEST(MaxPool, OddSpatialThrows) {
  EXPECT_THROW(ops::maxpool2x2(tensor::zeros({1, 1, 3, 4})), error);
}

TEST(GlobalAvgPool, ForwardBackward) {
  tensor x{{1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40}};
  tensor y = ops::global_avgpool(x);
  EXPECT_EQ(y.shape(), (shape_t{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);

  tensor go{{1, 2}, {4.0f, 8.0f}};
  tensor gi = ops::global_avgpool_backward(go, x.shape());
  EXPECT_FLOAT_EQ(gi[0], 1.0f);
  EXPECT_FLOAT_EQ(gi[4], 2.0f);
}

TEST(Upsample, FactorOneIsIdentity) {
  rng g{9};
  tensor x = tensor::randn(g, {3, 4, 4});
  tensor y = ops::upsample_bilinear(x, 1);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Upsample, ConstantStaysConstant) {
  tensor x = tensor::full({2, 3, 3}, 0.7f);
  tensor y = ops::upsample_bilinear(x, 4);
  EXPECT_EQ(y.shape(), (shape_t{2, 12, 12}));
  for (float v : y.data()) EXPECT_NEAR(v, 0.7f, 1e-6f);
}

TEST(Upsample, BatchedInput) {
  rng g{10};
  tensor x = tensor::randn(g, {2, 3, 4, 4});
  tensor y = ops::upsample_bilinear(x, 2);
  EXPECT_EQ(y.shape(), (shape_t{2, 3, 8, 8}));
}

TEST(Upsample, ValuesBoundedByInputRange) {
  rng g{11};
  tensor x = tensor::rand_uniform(g, {1, 4, 4}, 0.2f, 0.8f);
  tensor y = ops::upsample_bilinear(x, 4);
  for (float v : y.data()) {
    EXPECT_GE(v, 0.2f - 1e-5f);
    EXPECT_LE(v, 0.8f + 1e-5f);
  }
}

}  // namespace
}  // namespace pelta
