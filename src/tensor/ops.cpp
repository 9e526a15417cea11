#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernel_tier.h"
#include "tensor/kernels.h"
#include "tensor/parallel.h"

namespace pelta::ops {

namespace {

// Elementwise loops split across the pool only above this many elements per
// chunk; below it the whole tensor runs inline on the calling thread with no
// pool (or std::function) overhead. Each output element depends on its own
// inputs only, so the split is bit-identical for every PELTA_THREADS value.
constexpr std::int64_t k_elementwise_grain = 1 << 15;

template <class F>
void elementwise_dispatch(std::int64_t n, const F& chunk) {
  if (n > k_elementwise_grain)
    parallel_for_range(n, k_elementwise_grain,
                       [&](std::int64_t lo, std::int64_t hi) { chunk(lo, hi); });
  else
    chunk(0, n);
}

// F is a template parameter (not a function pointer) so the compiler can
// inline the op into the vectorized loop body.
template <class F>
tensor zip(const tensor& a, const tensor& b, const char* what, const F& f) {
  PELTA_CHECK_MSG(a.same_shape(b), what << " shape mismatch " << to_string(a.shape()) << " vs "
                                        << to_string(b.shape()));
  tensor out{a.shape()};
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  elementwise_dispatch(out.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i], pb[i]);
  });
  return out;
}

template <class F>
tensor unary(const tensor& a, const F& f) {
  tensor out{a.shape()};
  const float* pa = a.data().data();
  float* po = out.data().data();
  elementwise_dispatch(out.numel(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) po[i] = f(pa[i]);
  });
  return out;
}

// unary() for a tier kernel: kernel(in, out, count) runs over each chunk.
template <class K>
tensor unary_kernel(const tensor& a, const K& kernel) {
  tensor out{a.shape()};
  const float* pa = a.data().data();
  float* po = out.data().data();
  elementwise_dispatch(out.numel(), [&](std::int64_t lo, std::int64_t hi) {
    kernel(pa + lo, po + lo, hi - lo);
  });
  return out;
}

}  // namespace

tensor add(const tensor& a, const tensor& b) {
  return zip(a, b, "add", [](float x, float y) { return x + y; });
}
tensor sub(const tensor& a, const tensor& b) {
  return zip(a, b, "sub", [](float x, float y) { return x - y; });
}
tensor mul(const tensor& a, const tensor& b) {
  return zip(a, b, "mul", [](float x, float y) { return x * y; });
}
tensor div(const tensor& a, const tensor& b) {
  return zip(a, b, "div", [](float x, float y) { return x / y; });
}

tensor add_scalar(const tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}

tensor mul_scalar(const tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}

tensor neg(const tensor& a) {
  return unary(a, [](float x) { return -x; });
}
tensor relu(const tensor& a) {
  return unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
tensor log(const tensor& a) {
  return unary(a, [](float x) { return std::log(x); });
}
tensor sqrt(const tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}
tensor abs(const tensor& a) {
  return unary(a, [](float x) { return std::fabs(x); });
}
tensor sign(const tensor& a) {
  return unary(a, [](float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}

tensor clamp(const tensor& a, float lo, float hi) {
  tensor out = a;
  out.clamp_(lo, hi);
  return out;
}

tensor map(const tensor& a, const std::function<float(float)>& f) {
  return unary(a, f);
}

tensor exp(const tensor& a) {
  return unary_kernel(a, [](const float* x, float* out, std::int64_t count) {
    detail::active_kernel_fns().exp_shifted(x, 0.0f, out, count);  // x - 0 == x
  });
}

tensor tanh(const tensor& a) { return unary_kernel(a, detail::active_kernel_fns().tanh); }

void exp_shifted(std::span<const float> x, float shift, std::span<float> out) {
  PELTA_CHECK_MSG(x.size() == out.size(),
                  "exp_shifted size mismatch " << x.size() << " vs " << out.size());
  detail::active_kernel_fns().exp_shifted(x.data(), shift, out.data(),
                                          static_cast<std::int64_t>(out.size()));
}

void softmax_rows(std::span<const float> x, std::span<float> out, std::int64_t len) {
  PELTA_CHECK_MSG(
      x.size() == out.size() && len > 0 && out.size() % static_cast<std::size_t>(len) == 0,
      "softmax_rows over " << x.size() << " -> " << out.size() << " in rows of " << len);
  const auto row_len = static_cast<std::size_t>(len);
  for (std::size_t r0 = 0; r0 < out.size(); r0 += row_len) {
    const std::span<const float> xr = x.subspan(r0, row_len);
    const std::span<float> orow = out.subspan(r0, row_len);
    float m = xr[0];
    for (std::size_t c = 1; c < row_len; ++c) m = std::max(m, xr[c]);
    exp_shifted(xr, m, orow);
    double z = 0.0;
    for (float e : orow) z += e;
    const float inv = static_cast<float>(1.0 / z);
    for (float& e : orow) e *= inv;
  }
}

void softmax_rows_backward(std::span<const float> s, std::span<const float> g,
                           std::span<float> out, std::int64_t len) {
  PELTA_CHECK_MSG(s.size() == g.size() && s.size() == out.size() && len > 0 &&
                      out.size() % static_cast<std::size_t>(len) == 0,
                  "softmax_rows_backward over " << s.size() << ", " << g.size() << " -> "
                                                << out.size() << " in rows of " << len);
  const auto row_len = static_cast<std::size_t>(len);
  for (std::size_t r0 = 0; r0 < out.size(); r0 += row_len) {
    const float* sr = s.data() + r0;
    const float* gr = g.data() + r0;
    float* orow = out.data() + r0;
    double dot = 0.0;
    for (std::size_t c = 0; c < row_len; ++c) dot += static_cast<double>(gr[c]) * sr[c];
    const auto dotf = static_cast<float>(dot);
    for (std::size_t c = 0; c < row_len; ++c) orow[c] = sr[c] * (gr[c] - dotf);
  }
}

tensor gelu(const tensor& x) { return unary_kernel(x, detail::active_kernel_fns().gelu); }

tensor gelu_backward(const tensor& g, const tensor& x) {
  PELTA_CHECK_MSG(g.same_shape(x), "gelu_backward shape mismatch "
                                       << to_string(g.shape()) << " vs " << to_string(x.shape()));
  const auto kernel = detail::active_kernel_fns().gelu_backward;
  tensor out{x.shape()};
  const float* px = x.data().data();
  const float* pg = g.data().data();
  float* po = out.data().data();
  elementwise_dispatch(out.numel(), [&](std::int64_t lo, std::int64_t hi) {
    kernel(px + lo, pg + lo, po + lo, hi - lo);
  });
  return out;
}

namespace {

// Number of rows of `width` elements that `a` holds; a zero width fits only
// an empty tensor.
std::int64_t rows_of(const tensor& a, std::int64_t width) {
  PELTA_CHECK_MSG(width > 0 ? a.numel() % width == 0 : a.numel() == 0,
                  to_string(a.shape()) << " is not made of rows of " << width);
  return width > 0 ? a.numel() / width : 0;
}

}  // namespace

void add_rows_(tensor& a, const tensor& row) {
  const std::int64_t width = row.numel();
  const float* pr = row.data().data();
  float* pa = a.data().data();
  for (std::int64_t r = 0, rows = rows_of(a, width); r < rows; ++r, pa += width)
    for (std::int64_t c = 0; c < width; ++c) pa[c] += pr[c];
}

tensor sum_rows(const tensor& a, shape_t row_shape) {
  tensor out{std::move(row_shape)};
  const std::int64_t width = out.numel();
  const float* pa = a.data().data();
  float* po = out.data().data();
  for (std::int64_t r = 0, rows = rows_of(a, width); r < rows; ++r, pa += width)
    for (std::int64_t c = 0; c < width; ++c) po[c] += pa[c];
  return out;
}

float sum(const tensor& a) {
  double acc = 0.0;  // double accumulator for numerical stability
  for (float x : a.data()) acc += x;
  return static_cast<float>(acc);
}

float mean(const tensor& a) {
  PELTA_CHECK(a.numel() > 0);
  return sum(a) / static_cast<float>(a.numel());
}

float max(const tensor& a) {
  PELTA_CHECK(a.numel() > 0);
  return *std::max_element(a.data().begin(), a.data().end());
}

float min(const tensor& a) {
  PELTA_CHECK(a.numel() > 0);
  return *std::min_element(a.data().begin(), a.data().end());
}

std::int64_t argmax(const tensor& a) {
  PELTA_CHECK(a.numel() > 0);
  auto d = a.data();
  return static_cast<std::int64_t>(std::max_element(d.begin(), d.end()) - d.begin());
}

tensor argmax_lastdim(const tensor& a) {
  PELTA_CHECK_MSG(a.ndim() >= 1, "argmax_lastdim on scalar");
  const std::int64_t last = a.size(-1);
  const std::int64_t rows = a.numel() / last;
  shape_t out_shape{a.shape().begin(), a.shape().end() - 1};
  tensor out{out_shape};
  auto pa = a.data();
  auto po = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = pa.data() + r * last;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < last; ++c)
      if (row[c] > row[best]) best = c;
    po[static_cast<std::size_t>(r)] = static_cast<float>(best);
  }
  return out;
}

float norm_l2(const tensor& a) {
  double acc = 0.0;
  for (float x : a.data()) acc += static_cast<double>(x) * x;
  return static_cast<float>(std::sqrt(acc));
}

float norm_linf(const tensor& a) {
  float m = 0.0f;
  for (float x : a.data()) m = std::max(m, std::fabs(x));
  return m;
}

float dot(const tensor& a, const tensor& b) {
  PELTA_CHECK_MSG(a.same_shape(b), "dot shape mismatch");
  double acc = 0.0;
  auto pa = a.data();
  auto pb = b.data();
  for (std::size_t i = 0; i < pa.size(); ++i) acc += static_cast<double>(pa[i]) * pb[i];
  return static_cast<float>(acc);
}

namespace {

using detail::gemm_accumulate;
using detail::k_parallel_flops;

// The m rows of `a` (k = b.size(0) wide) times b [k, n], into a fresh
// tensor of `out_shape`. Callers check the shapes.
tensor matmul_rows(const tensor& a, std::int64_t m, const tensor& b, shape_t out_shape) {
  const std::int64_t k = b.size(0), n = b.size(1);
  tensor out{std::move(out_shape)};
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  detail::finite_cache b_finite;  // shared across chunks: B scanned at most once
  if (m >= 2 && m * k * n >= k_parallel_flops) {
    // Output rows are disjoint, so the split is bit-identical to serial.
    // The grain rounds up to the register-tile height so mid-matrix chunks
    // keep full row tiles (a throughput concern only — element values are
    // independent of the chunk partitioning).
    constexpr std::int64_t mr = detail::k_gemm_mr;
    std::int64_t grain =
        std::max<std::int64_t>(1, m / (8 * static_cast<std::int64_t>(parallel_thread_count())));
    grain = (grain + mr - 1) / mr * mr;
    parallel_for_range(m, grain, [&](std::int64_t lo, std::int64_t hi) {
      gemm_accumulate(pa + lo * k, pb, po + lo * n, hi - lo, k, n, b_finite);
    });
  } else {
    gemm_accumulate(pa, pb, po, m, k, n, b_finite);
  }
  return out;
}

}  // namespace

tensor matmul(const tensor& a, const tensor& b) {
  PELTA_CHECK_MSG(a.ndim() == 2 && b.ndim() == 2,
                  "matmul expects 2-d, got " << to_string(a.shape()) << " x " << to_string(b.shape()));
  PELTA_CHECK_MSG(a.size(1) == b.size(0),
                  "matmul inner dim mismatch " << to_string(a.shape()) << " x " << to_string(b.shape()));
  return matmul_rows(a, a.size(0), b, {a.size(0), b.size(1)});
}

tensor matmul_lastdim(const tensor& a, const tensor& b) {
  PELTA_CHECK_MSG(a.ndim() >= 1 && b.ndim() == 2 && a.size(-1) == b.size(0),
                  "matmul_lastdim shapes " << to_string(a.shape()) << " x "
                                           << to_string(b.shape()));
  shape_t out_shape = a.shape();
  out_shape.back() = b.size(1);
  const std::int64_t m = numel_of(shape_t{a.shape().begin(), a.shape().end() - 1});
  return matmul_rows(a, m, b, std::move(out_shape));
}

tensor bmm(const tensor& a, const tensor& b) {
  PELTA_CHECK_MSG(a.ndim() == 3 && b.ndim() == 3,
                  "bmm expects 3-d, got " << to_string(a.shape()) << " x " << to_string(b.shape()));
  PELTA_CHECK_MSG(a.size(0) == b.size(0) && a.size(2) == b.size(1),
                  "bmm shape mismatch " << to_string(a.shape()) << " x " << to_string(b.shape()));
  const std::int64_t bt = a.size(0), m = a.size(1), k = a.size(2), n = b.size(2);
  tensor out{shape_t{bt, m, n}};
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  const auto one_batch = [&](std::int64_t i) {
    const float* bslice = pb + i * k * n;
    detail::finite_cache b_finite;  // per batch: each has its own B slice
    gemm_accumulate(pa + i * m * k, bslice, po + i * m * n, m, k, n, b_finite);
  };
  if (bt >= 2 && bt * m * k * n >= k_parallel_flops) {
    parallel_for(bt, one_batch);  // batches write disjoint output slices
  } else {
    for (std::int64_t i = 0; i < bt; ++i) one_batch(i);
  }
  return out;
}

namespace {

// out[j, i] = a[i, j] for a [m, n] row-major block.
void transpose_into(const float* a, float* out, std::int64_t m, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[j * m + i] = a[i * n + j];
}

}  // namespace

tensor transpose2d(const tensor& a) {
  PELTA_CHECK_MSG(a.ndim() == 2, "transpose2d on " << to_string(a.shape()));
  const std::int64_t m = a.size(0), n = a.size(1);
  tensor out{shape_t{n, m}};
  transpose_into(a.data().data(), out.data().data(), m, n);
  return out;
}

tensor transpose_last2(const tensor& a) {
  PELTA_CHECK_MSG(a.ndim() == 3, "transpose_last2 on " << to_string(a.shape()));
  const std::int64_t b = a.size(0), m = a.size(1), n = a.size(2);
  tensor out{shape_t{b, n, m}};
  const float* pa = a.data().data();
  float* po = out.data().data();
  for (std::int64_t t = 0; t < b; ++t) transpose_into(pa + t * m * n, po + t * m * n, m, n);
  return out;
}

}  // namespace pelta::ops
