// THE frozen copy of the pre-blocked GEMM kernel (the naive cache-friendly
// i-k-j loop with the lazy zero-skip gate) — the single baseline both the
// kernel test suite and bench_kernels compare the blocked micro-kernels
// against, bit for bit. Do not "improve" it: its value is that it never
// changes. Accumulation goes through ops::detail::fmadd, the same
// compile-time rounding choice the blocked kernels use — with a bare
// `out += a * b` here, -ffp-contract would be free to fuse this loop
// differently from the library kernel on FMA targets and the bitwise
// comparisons would break.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/kernels.h"

namespace pelta::ops::reference {

inline void reference_gemm(const float* a, const float* b, float* out, std::int64_t m,
                           std::int64_t k, std::int64_t n) {
  const bool skip = detail::all_finite(b, k * n);
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f && skip) continue;
      const float* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) orow[j] = detail::fmadd(av, brow[j], orow[j]);
    }
  }
}

// Pre-PR transposed-B path: materialize Bᵀ ([n,k] -> [k,n]) per call, then
// run the naive kernel — exactly what conv2d_backward_weight used to do
// with cols_t.
inline void reference_gemm_bt(const float* a, const float* bt, float* out, std::int64_t m,
                              std::int64_t k, std::int64_t n, std::vector<float>& b_storage) {
  b_storage.resize(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t kk = 0; kk < k; ++kk)
      b_storage[static_cast<std::size_t>(kk * n + j)] = bt[j * k + kk];
  reference_gemm(a, b_storage.data(), out, m, k, n);
}

// Conv data movement as it stood before the fringe-only loops: one bounds
// branch per element. reference_im2col expands one image [C,H,W] into
// cols [C*KH*KW, OH*OW]; reference_col2im scatter-adds cols back in the
// same (ci, ky, kx, y, x) order. With reference_gemm / reference_gemm_bt
// they give the earlier conv forward and backward formulations that the
// conv-adjoint tests and bench_kernels compare against.
inline void reference_im2col(const float* img, float* cols, std::int64_t c, std::int64_t h,
                             std::int64_t w, std::int64_t kh, std::int64_t kw,
                             std::int64_t stride, std::int64_t pad, std::int64_t oh,
                             std::int64_t ow) {
  std::int64_t row = 0;
  for (std::int64_t ci = 0; ci < c; ++ci)
    for (std::int64_t ky = 0; ky < kh; ++ky)
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row)
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t iy = y * stride - pad + ky, ix = x * stride - pad + kx;
            cols[(row * oh + y) * ow + x] =
                (iy < 0 || iy >= h || ix < 0 || ix >= w) ? 0.0f : img[(ci * h + iy) * w + ix];
          }
}

inline void reference_col2im(const float* cols, float* img, std::int64_t c, std::int64_t h,
                             std::int64_t w, std::int64_t kh, std::int64_t kw,
                             std::int64_t stride, std::int64_t pad, std::int64_t oh,
                             std::int64_t ow) {
  std::int64_t row = 0;
  for (std::int64_t ci = 0; ci < c; ++ci)
    for (std::int64_t ky = 0; ky < kh; ++ky)
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row)
        for (std::int64_t y = 0; y < oh; ++y)
          for (std::int64_t x = 0; x < ow; ++x) {
            const std::int64_t iy = y * stride - pad + ky, ix = x * stride - pad + kx;
            if (iy >= 0 && iy < h && ix >= 0 && ix < w)
              img[(ci * h + iy) * w + ix] += cols[(row * oh + y) * ow + x];
          }
}

// ops::conv2d_transpose as it stood before its tap windows were solved per
// input pixel: one bounds branch per tap. input [b, c, h, w], weight
// [c, oc, kh, kw], out [b, oc, oh, ow] zeroed by the caller. Zero inputs
// are skipped, so their taps never touch the weights.
inline void reference_conv2d_transpose(const float* in, const float* wt, float* out,
                                       std::int64_t b, std::int64_t c, std::int64_t h,
                                       std::int64_t w, std::int64_t oc, std::int64_t kh,
                                       std::int64_t kw, std::int64_t stride, std::int64_t pad) {
  const std::int64_t oh = (h - 1) * stride - 2 * pad + kh;
  const std::int64_t ow = (w - 1) * stride - 2 * pad + kw;
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t ci = 0; ci < c; ++ci)
      for (std::int64_t y = 0; y < h; ++y)
        for (std::int64_t x = 0; x < w; ++x) {
          const float v = in[((n * c + ci) * h + y) * w + x];
          if (v == 0.0f) continue;
          for (std::int64_t o = 0; o < oc; ++o)
            for (std::int64_t ky = 0; ky < kh; ++ky) {
              const std::int64_t oy = y * stride - pad + ky;
              if (oy < 0 || oy >= oh) continue;
              float* out_row = out + ((n * oc + o) * oh + oy) * ow;
              const float* wt_row = wt + ((ci * oc + o) * kh + ky) * kw;
              for (std::int64_t kx = 0; kx < kw; ++kx) {
                const std::int64_t ox = x * stride - pad + kx;
                if (ox < 0 || ox >= ow) continue;
                out_row[ox] = detail::fmadd(v, wt_row[kx], out_row[ox]);
              }
            }
        }
}

// THE frozen int8 reference: the textbook i-k-j loop over UNPACKED operands
// computing out[i][j] = sum_k (a_u8 - 128) * b_s8 in int32. It knows nothing
// of the packed panel layout, the colsum compensation trick or the AVX2
// pair-sum path — which is exactly why comparing ops::detail::qgemm against
// it bitwise proves the production kernel's algebra, not just its porting.
// Like its fp32 sibling above: do not "improve" it.
inline void reference_qgemm(const std::uint8_t* a, std::int64_t lda, const std::int8_t* b,
                            std::int32_t* out, std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[i * n + j] = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    const std::uint8_t* arow = a + i * lda;
    std::int32_t* orow = out + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int32_t av = static_cast<std::int32_t>(arow[kk]) - 128;
      const std::int8_t* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) orow[j] += av * static_cast<std::int32_t>(brow[j]);
    }
  }
}

}  // namespace pelta::ops::reference
