// The kernel bodies every ISA tier compiles (see kernel_tier.h). Included
// exactly once by each kernels_<tier>.cpp, after it defines
//   PELTA_KERNEL_TIER_NS     the tier's namespace (tier_baseline, ...)
//   PELTA_KERNEL_TIER_LEVEL  0 baseline, 1 avx2, 2 avx512
// and compiled with that tier's ISA-enable flags plus -ffp-contract=off
// (src/tensor/CMakeLists.txt). Contraction must stay off: AVX-512F carries
// its own FMA forms, and with -ffp-contract=fast GCC fuses `a * b + c` into
// vfmadd even where __FMA__ is undefined, which would change the bits.
//
// No pragma once: the header is a template for one translation unit. It
// must not call any non-always-inline external-linkage inline function
// (std::min, scratch_buffer::data, ...): an unoptimized build would emit an
// ISA-flagged out-of-line copy the linker may pick for baseline callers.
// Hence the scratch panels come from the caller, and the helpers below have
// internal linkage.
//
// Structure of the fp32 GEMM:
//   * k-blocking: the k range is walked in KC-sized blocks, ascending, so a
//     B column panel stays hot in cache while every row tile reuses it.
//     Partial sums round-trip through `out` between blocks — a float
//     store/load, value-exact — and per-element k-order is unchanged.
//   * Register tiles: MR x W accumulator blocks live across the whole
//     k-loop of a block, so no partial sum touches memory inside it and
//     each B row load is reused across MR output rows. The fixed-trip
//     inner loops auto-vectorize; every path spells the accumulation as the
//     same `acc += a * b` / masked-select expression, which keeps full
//     tiles, tails, and any parallel row split bit-identical.
//   * Zero-skip gate: decided ONCE per call from the operand's finiteness
//     (kernels.h). Inside a tile the common all-rows-nonzero k-step takes a
//     branch-free FMA path; a k-step where some row of A is zero falls back
//     to a masked select `av != 0 ? acc + av*b : acc` — bit-exact with the
//     classic per-element skip, without a branch in the inner loop.
//   * Column tails (n % 16) never run narrow scalar loops: the tail columns
//     are packed into a zero-padded 16-wide panel and full-width tiles run
//     over it, storing only the real columns. Pad lanes cost nothing
//     semantically (they are never stored) and the real columns see the
//     identical operation sequence.
#if !defined(PELTA_KERNEL_TIER_NS) || !defined(PELTA_KERNEL_TIER_LEVEL)
#error "define PELTA_KERNEL_TIER_NS and PELTA_KERNEL_TIER_LEVEL before including"
#endif

#include <cstdint>
#include <cstring>

#if PELTA_KERNEL_TIER_LEVEL >= 1
#include <immintrin.h>
#endif

#include "tensor/kernel_tier.h"
#include "tensor/kernels.h"
#include "tensor/quantized_tensor.h"

#if PELTA_KERNEL_TIER_LEVEL >= 2 && \
    !(defined(__AVX512F__) && defined(__AVX512VL__) && defined(__AVX512BW__) && \
      defined(__AVX512VNNI__))
#error "the avx512 tier needs -mavx512f -mavx512vl -mavx512bw -mavx512vnni"
#elif PELTA_KERNEL_TIER_LEVEL == 1 && !defined(__AVX2__)
#error "the avx2 tier needs -mavx2"
#endif

// fmadd follows the build-level PELTA_FMADD_FUSED (kernels.h), never this
// tier's __FMA__. A tier may see __FMA__ where the build does not (Clang's
// -mavx512f implies FMA); fmadd then stays mul+add and contraction is off,
// so the bits hold. The reverse cannot hold them cheaply: a fused build
// whose tier lost FMA would run every fmadd through libm.
#if PELTA_FMADD_FUSED && !defined(__FMA__) && !defined(__ARM_FEATURE_FMA)
#error "the build rounds with FMA but this tier's flags do not enable it"
#endif

namespace pelta::ops::detail::PELTA_KERNEL_TIER_NS {

namespace {

constexpr std::int64_t MR = k_gemm_mr;       // 4  — rows per register tile
constexpr std::int64_t WMID = k_gemm_nr;     // 16 — packed/mid tile width
constexpr std::int64_t WMAIN = k_gemm_wide;  // 64 — main tile width
constexpr std::int64_t KC = k_gemm_kc;       // k-block: B panel KC*WMAIN = 256 KB

constexpr std::int64_t min_i64(std::int64_t x, std::int64_t y) { return y < x ? y : x; }

// One ROWS x W register tile over k-block rows [0, kc) of B.
//   a:   ROWS rows, stride lda, k-offset already applied
//   b:   kc rows, stride ldb (ldb == n on B itself, WMID on a packed panel)
//   out: ROWS rows, stride ldo; JSTORE columns are written back (JSTORE < W
//        only for the zero-padded edge panel, whose pad lanes are compute-
//        only and never touch memory)
template <int ROWS, std::int64_t W, bool Skip, std::int64_t JSTORE = W>
inline void gemm_tile(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                      float* out, std::int64_t ldo, std::int64_t kc) {
  static_assert(JSTORE <= W);
  float acc[ROWS][W];
  for (int r = 0; r < ROWS; ++r) {
    for (std::int64_t j = 0; j < JSTORE; ++j) acc[r][j] = out[r * ldo + j];
    for (std::int64_t j = JSTORE; j < W; ++j) acc[r][j] = 0.0f;  // pad lanes
  }
  for (std::int64_t kk = 0; kk < kc; ++kk) {
    const float* brow = b + kk * ldb;
    float av[ROWS];
    bool any_zero = false;
    for (int r = 0; r < ROWS; ++r) {
      av[r] = a[r * lda + kk];
      any_zero |= (av[r] == 0.0f);
    }
    // The W == WMID instantiations carry a "GCC unroll 1" pragma: GCC
    // completely unrolls a bare 16-trip loop into scalar straight-line code
    // that SLP fails to re-vectorize (observed 15x slowdown); kept
    // loop-shaped, the loop vectorizer collapses it into full-width vector
    // ops. The wide instantiations vectorize best as plain loops, so the
    // two forms are split on W — the expressions are identical.
    if (!Skip || !any_zero) {
      // Common case: no zero anywhere in the tile's A column — one
      // predictable branch guards a pure FMA block.
      if constexpr (W == WMID) {
        for (int r = 0; r < ROWS; ++r)
#pragma GCC unroll 1
          for (std::int64_t j = 0; j < W; ++j) acc[r][j] = fmadd(av[r], brow[j], acc[r][j]);
      } else {
        for (int r = 0; r < ROWS; ++r)
          for (std::int64_t j = 0; j < W; ++j) acc[r][j] = fmadd(av[r], brow[j], acc[r][j]);
      }
    } else {
      // Some row skips: masked select, bit-exact with skipping the update.
      if constexpr (W == WMID) {
        for (int r = 0; r < ROWS; ++r)
#pragma GCC unroll 1
          for (std::int64_t j = 0; j < W; ++j)
            acc[r][j] = av[r] != 0.0f ? fmadd(av[r], brow[j], acc[r][j]) : acc[r][j];
      } else {
        for (int r = 0; r < ROWS; ++r)
          for (std::int64_t j = 0; j < W; ++j)
            acc[r][j] = av[r] != 0.0f ? fmadd(av[r], brow[j], acc[r][j]) : acc[r][j];
      }
    }
  }
  for (int r = 0; r < ROWS; ++r)
    for (std::int64_t j = 0; j < JSTORE; ++j) out[r * ldo + j] = acc[r][j];
}

// All row tiles of one column panel: MR blocks, then the 3/2/1 remainder
// through the same template body at smaller ROWS. JSTORE as in gemm_tile.
template <std::int64_t W, bool Skip, std::int64_t JSTORE = W>
inline void panel_rows(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                       float* out, std::int64_t ldo, std::int64_t kc, std::int64_t m) {
  std::int64_t i = 0;
  for (; i + MR <= m; i += MR)
    gemm_tile<MR, W, Skip, JSTORE>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc);
  switch (m - i) {
    case 3: gemm_tile<3, W, Skip, JSTORE>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc); break;
    case 2: gemm_tile<2, W, Skip, JSTORE>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc); break;
    case 1: gemm_tile<1, W, Skip, JSTORE>(a + i * lda, lda, b, ldb, out + i * ldo, ldo, kc); break;
    default: break;
  }
}

// Edge panel: the last n % 16 columns, zero-padded to a full 16-wide packed
// panel (row stride ldb) so the tile loops stay fixed-trip. Dispatch on the
// store width.
template <bool Skip>
void panel_rows_edge(const float* a, std::int64_t lda, const float* panel, std::int64_t ldb,
                     float* out, std::int64_t ldo, std::int64_t kc, std::int64_t m,
                     std::int64_t jn) {
  switch (jn) {
    case 1: panel_rows<WMID, Skip, 1>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 2: panel_rows<WMID, Skip, 2>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 3: panel_rows<WMID, Skip, 3>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 4: panel_rows<WMID, Skip, 4>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 5: panel_rows<WMID, Skip, 5>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 6: panel_rows<WMID, Skip, 6>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 7: panel_rows<WMID, Skip, 7>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 8: panel_rows<WMID, Skip, 8>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 9: panel_rows<WMID, Skip, 9>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 10: panel_rows<WMID, Skip, 10>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 11: panel_rows<WMID, Skip, 11>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 12: panel_rows<WMID, Skip, 12>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 13: panel_rows<WMID, Skip, 13>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 14: panel_rows<WMID, Skip, 14>(a, lda, panel, ldb, out, ldo, kc, m); break;
    case 15: panel_rows<WMID, Skip, 15>(a, lda, panel, ldb, out, ldo, kc, m); break;
    default: break;
  }
}

template <bool Skip>
void gemm_blocked(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                  std::int64_t n, float* panel) {
  const std::int64_t jn_edge = n % WMID;
  for (std::int64_t k0 = 0; k0 < k; k0 += KC) {
    const std::int64_t kc = min_i64(KC, k - k0);
    const float* ablk = a + k0;
    const float* bblk = b + k0 * n;
    std::int64_t j = 0;
    for (; j + WMAIN <= n; j += WMAIN)
      panel_rows<WMAIN, Skip>(ablk, k, bblk + j, n, out + j, n, kc, m);
    for (; j + WMID <= n; j += WMID)
      panel_rows<WMID, Skip>(ablk, k, bblk + j, n, out + j, n, kc, m);
    if (j < n) {
      // Pack the ragged edge columns, zero-padded to WMID.
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* src = bblk + kk * n + j;
        float* dst = panel + kk * WMID;
        for (std::int64_t jj = 0; jj < jn_edge; ++jj) dst[jj] = src[jj];
        for (std::int64_t jj = jn_edge; jj < WMID; ++jj) dst[jj] = 0.0f;
      }
      panel_rows_edge<Skip>(ablk, k, panel, WMID, out + j, n, kc, m, jn_edge);
    }
  }
}

void gemm(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
          std::int64_t n, bool skip, float* panel) {
  if (skip)
    gemm_blocked<true>(a, b, out, m, k, n, panel);
  else
    gemm_blocked<false>(a, b, out, m, k, n, panel);
}

// ---- int8 quantized GEMM ----------------------------------------------------
//
// Mirrors the fp32 structure above — MR x 16 register tiles, k-blocking,
// zero-padded packed edge panels — but every accumulation is int32 and
// therefore exactly associative: no zero-skip gate, no fmadd policy, and
// bit-identity across tile shapes, tiers and thread splits holds by
// construction rather than by rounding-sequence discipline. The operand
// encoding (shifted-u8 A, 7-bit s8 B, -128*colsum compensation base) is
// documented in kernels.h.

constexpr std::int64_t KGQ = k_qgemm_kg;  // 4 k-bytes per group (one vpmaddubsw lane)
constexpr std::int64_t NRQ = k_qgemm_nr;  // 16-column packed panels
constexpr std::int64_t KCQ = 256;         // k-groups per block: 1024 k, 16 KB panel block

#if PELTA_KERNEL_TIER_LEVEL >= 2

// One ROWS x 16 tile, 512-bit VNNI form: a packed k-group is exactly one
// zmm (16 columns x 4 k-bytes), so each (group, row) step is a single
// vpdpbusd — u8*s8 quads summed straight into the 16 int32 column lanes,
// the same exact integers as the AVX2 and scalar forms. Edge panels use
// lane masks instead of staging buffers; masked-off lanes load as zero and
// are never stored.
template <int ROWS>
inline void qgemm_tile(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                       std::int32_t* out, std::int64_t ldo, std::int64_t groups,
                       std::int64_t jn) {
  const __mmask16 lanes = static_cast<__mmask16>((1u << jn) - 1u);
  __m512i acc[ROWS];
  for (int r = 0; r < ROWS; ++r) acc[r] = _mm512_maskz_loadu_epi32(lanes, out + r * ldo);
  for (std::int64_t g = 0; g < groups; ++g) {
    const __m512i b = _mm512_loadu_si512(panel + g * NRQ * KGQ);
    for (int r = 0; r < ROWS; ++r) {
      std::int32_t a4;
      std::memcpy(&a4, a + r * lda + g * KGQ, sizeof(a4));
      acc[r] = _mm512_dpbusd_epi32(acc[r], _mm512_set1_epi32(a4), b);
    }
  }
  for (int r = 0; r < ROWS; ++r) _mm512_mask_storeu_epi32(out + r * ldo, lanes, acc[r]);
}

#elif PELTA_KERNEL_TIER_LEVEL == 1

// One ROWS x 16 tile over `groups` k-groups of a packed panel. Per group a
// row contributes 4 consecutive shifted-u8 bytes, broadcast as one 32-bit
// lane. The tier's own flags give the plain-AVX2 form: vpmaddubsw
// (|pair| <= 2*255*63 = 32130 < 2^15, so the int16 stage cannot saturate)
// widened by vpmaddwd. Where the build's base flags already enable a ymm
// VNNI form, one vpdpbusd forms the u8*s8 quad dot product straight into
// the int32 column lanes instead — the same exact integers.
template <int ROWS>
inline void qgemm_tile(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                       std::int32_t* out, std::int64_t ldo, std::int64_t groups,
                       std::int64_t jn) {
  __m256i accl[ROWS];  // columns 0..7
  __m256i acch[ROWS];  // columns 8..15
  if (jn == NRQ) {
    for (int r = 0; r < ROWS; ++r) {
      accl[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + r * ldo));
      acch[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(out + r * ldo + 8));
    }
  } else {
    alignas(32) std::int32_t tmp[NRQ];
    for (int r = 0; r < ROWS; ++r) {
      for (std::int64_t j = 0; j < jn; ++j) tmp[j] = out[r * ldo + j];
      for (std::int64_t j = jn; j < NRQ; ++j) tmp[j] = 0;  // pad lanes, never stored
      accl[r] = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
      acch[r] = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp + 8));
    }
  }
#if !(defined(__AVX512VNNI__) && defined(__AVX512VL__)) && !defined(__AVXVNNI__)
  const __m256i ones = _mm256_set1_epi16(1);
#endif
  for (std::int64_t g = 0; g < groups; ++g) {
    const __m256i b0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel + g * NRQ * KGQ));
    const __m256i b1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel + g * NRQ * KGQ + 32));
    for (int r = 0; r < ROWS; ++r) {
      std::int32_t a4;
      std::memcpy(&a4, a + r * lda + g * KGQ, sizeof(a4));
      const __m256i av = _mm256_set1_epi32(a4);
#if defined(__AVX512VNNI__) && defined(__AVX512VL__)
      accl[r] = _mm256_dpbusd_epi32(accl[r], av, b0);
      acch[r] = _mm256_dpbusd_epi32(acch[r], av, b1);
#elif defined(__AVXVNNI__)
      accl[r] = _mm256_dpbusd_avx_epi32(accl[r], av, b0);
      acch[r] = _mm256_dpbusd_avx_epi32(acch[r], av, b1);
#else
      const __m256i p0 = _mm256_maddubs_epi16(av, b0);
      const __m256i p1 = _mm256_maddubs_epi16(av, b1);
      accl[r] = _mm256_add_epi32(accl[r], _mm256_madd_epi16(p0, ones));
      acch[r] = _mm256_add_epi32(acch[r], _mm256_madd_epi16(p1, ones));
#endif
    }
  }
  if (jn == NRQ) {
    for (int r = 0; r < ROWS; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r * ldo), accl[r]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + r * ldo + 8), acch[r]);
    }
  } else {
    alignas(32) std::int32_t tmp[NRQ];
    for (int r = 0; r < ROWS; ++r) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), accl[r]);
      _mm256_store_si256(reinterpret_cast<__m256i*>(tmp + 8), acch[r]);
      for (std::int64_t j = 0; j < jn; ++j) out[r * ldo + j] = tmp[j];
    }
  }
}

#else

// Portable tile: same packed layout, same per-group 4-byte dot products,
// int32 from the first multiply — integer-exact, so bitwise identical to
// the vector tiers (pad products are exact zeros on every path).
template <int ROWS>
inline void qgemm_tile(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                       std::int32_t* out, std::int64_t ldo, std::int64_t groups,
                       std::int64_t jn) {
  std::int32_t iacc[ROWS][NRQ];
  for (int r = 0; r < ROWS; ++r) {
    for (std::int64_t j = 0; j < jn; ++j) iacc[r][j] = out[r * ldo + j];
    for (std::int64_t j = jn; j < NRQ; ++j) iacc[r][j] = 0;  // pad lanes
  }
  for (std::int64_t g = 0; g < groups; ++g) {
    const std::int8_t* bg = panel + g * NRQ * KGQ;
    for (int r = 0; r < ROWS; ++r) {
      const std::uint8_t* ag = a + r * lda + g * KGQ;
      for (std::int64_t j = 0; j < NRQ; ++j) {
        const std::int8_t* bj = bg + j * KGQ;
        iacc[r][j] += static_cast<std::int32_t>(ag[0]) * bj[0] +
                      static_cast<std::int32_t>(ag[1]) * bj[1] +
                      static_cast<std::int32_t>(ag[2]) * bj[2] +
                      static_cast<std::int32_t>(ag[3]) * bj[3];
      }
    }
  }
  for (int r = 0; r < ROWS; ++r)
    for (std::int64_t j = 0; j < jn; ++j) out[r * ldo + j] = iacc[r][j];
}

#endif

// Primary row-tile height. The 512-bit VNNI tile holds one zmm accumulator
// per row (32 registers available), so 8 rows amortize the panel load and
// keep 8 independent vpdpbusd dependency chains in flight; the ymm forms
// need two accumulators per row and stay at the fp32 MR to fit 16
// registers.
constexpr std::int64_t MRQ = PELTA_KERNEL_TIER_LEVEL >= 2 ? 8 : MR;

// All row tiles of one packed column panel: MRQ blocks, then the remainder
// — the fp32 panel_rows shape, minus Skip/JSTORE templating (the store
// mask is the runtime `jn`; integer results cannot drift).
void qgemm_panel_rows(const std::uint8_t* a, std::int64_t lda, const std::int8_t* panel,
                      std::int32_t* out, std::int64_t ldo, std::int64_t groups, std::int64_t m,
                      std::int64_t jn) {
  std::int64_t i = 0;
  for (; i + MRQ <= m; i += MRQ)
    qgemm_tile<MRQ>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn);
  switch (m - i) {
    case 7: qgemm_tile<7>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 6: qgemm_tile<6>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 5: qgemm_tile<5>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 4: qgemm_tile<4>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 3: qgemm_tile<3>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 2: qgemm_tile<2>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    case 1: qgemm_tile<1>(a + i * lda, lda, panel, out + i * ldo, ldo, groups, jn); break;
    default: break;
  }
}

void qgemm(const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
           std::int32_t* out, std::int64_t m, std::int64_t groups, std::int64_t n) {
  for (std::int64_t g0 = 0; g0 < groups; g0 += KCQ) {
    const std::int64_t gc = min_i64(KCQ, groups - g0);
    const std::uint8_t* ablk = a + g0 * KGQ;
    for (std::int64_t j = 0, p = 0; j < n; j += NRQ, ++p) {
      const std::int8_t* panel = packed + (p * groups + g0) * NRQ * KGQ;
      qgemm_panel_rows(ablk, lda, panel, out + j, n, gc, m, min_i64(NRQ, n - j));
    }
  }
}

// ---- activation quantization ------------------------------------------------

std::int64_t quantize([[maybe_unused]] const float* x, [[maybe_unused]] std::int64_t count,
                      [[maybe_unused]] float inv, [[maybe_unused]] std::uint8_t* out) {
  std::int64_t i = 0;
#if PELTA_KERNEL_TIER_LEVEL >= 1
  // Clamp in fp32 FIRST, then let vcvtps2dq round to nearest-even in
  // hardware. round-then-clamp and clamp-then-round agree on every finite
  // input because rounding is monotone and +-127.0 round to themselves, so
  // this prefix is bitwise identical to quantize_activations' scalar loop.
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256 vlo = _mm256_set1_ps(-static_cast<float>(quant::k_act_qmax));
  const __m256 vhi = _mm256_set1_ps(static_cast<float>(quant::k_act_qmax));
  const __m256i vzero_pt = _mm256_set1_epi32(quant::k_act_zero);
  for (; i + 16 <= count; i += 16) {
    __m256 r0 = _mm256_mul_ps(_mm256_loadu_ps(x + i), vinv);
    __m256 r1 = _mm256_mul_ps(_mm256_loadu_ps(x + i + 8), vinv);
    r0 = _mm256_min_ps(_mm256_max_ps(r0, vlo), vhi);
    r1 = _mm256_min_ps(_mm256_max_ps(r1, vlo), vhi);
    const __m256i q0 = _mm256_add_epi32(_mm256_cvtps_epi32(r0), vzero_pt);
    const __m256i q1 = _mm256_add_epi32(_mm256_cvtps_epi32(r1), vzero_pt);
    // Narrow 16 int32 codes (all in [1, 255]) to bytes in memory order:
    // packus interleaves by 128-bit lane, the permute restores q0|q1 order.
    __m256i p16 = _mm256_packus_epi32(q0, q1);
    p16 = _mm256_permute4x64_epi64(p16, _MM_SHUFFLE(3, 1, 2, 0));
    const __m128i p8 = _mm_packus_epi16(_mm256_castsi256_si128(p16),
                                        _mm256_extracti128_si256(p16, 1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), p8);
  }
#endif
  return i;
}

// ---- activation transcendentals ----------------------------------------------
//
// Cephes-style expf and tanhf, written as branch-free per-element
// expressions so each loop below auto-vectorizes on every tier: IEEE add,
// mul, div and compare/select plus integer bit ops, with the polynomial
// steps through detail::fmadd. No libm call and no rcp/rsqrt estimate, so
// the bits are the same on every tier and every host; both functions are
// within 1 ulp of the exact value (tests/test_kernels.cpp sweeps them).

constexpr float k_log2e = 1.44269504088896341f;
// ln 2 split for Cody-Waite reduction: k_ln2_hi has 9 significant bits, so
// n * k_ln2_hi is exact for every |n| <= 128.
constexpr float k_ln2_hi = 0.693359375f;
constexpr float k_ln2_lo = -2.12194440e-4f;
// 1.5 * 2^23 + 127: adding it rounds x * log2(e) to the nearest integer n
// and leaves n + 127 (the biased exponent of 2^n) in the low mantissa bits.
constexpr float k_exp_round = 12583039.0f;
// Below k_exp_lo, exp(x) is under FLT_MIN: the result is exactly +0. Above
// k_exp_hi it overflows to +inf.
constexpr float k_exp_lo = -87.33654022216797f;
constexpr float k_exp_hi = 88.72283935546875f;
constexpr std::uint32_t k_sign_bit = 0x80000000u;

[[gnu::always_inline]] inline std::uint32_t bits_of(float x) {
  return __builtin_bit_cast(std::uint32_t, x);
}
[[gnu::always_inline]] inline float float_of(std::uint32_t u) {
  return __builtin_bit_cast(float, u);
}

// c ? a : b, on the bit patterns. A float ?: would be a branch around the
// operation it guards, and with -ftrapping-math (the default) GCC will not
// if-convert it, so the loop would not vectorize below AVX-512 masking.
[[gnu::always_inline]] inline float select(bool c, float a, float b) {
  const std::uint32_t mask = 0u - static_cast<std::uint32_t>(c);
  return float_of((bits_of(a) & mask) | (bits_of(b) & ~mask));
}

[[gnu::always_inline]] inline float exp_one(float x) {
  const float t = fmadd(x, k_log2e, k_exp_round);
  const float n = t - k_exp_round;  // exact: round(x * log2(e))
  float r = fmadd(n, -k_ln2_hi, x);
  r = fmadd(n, -k_ln2_lo, r);
  // exp(r) on |r| <= ln(2)/2: 1 + r + r^2 * p(r).
  float p = fmadd(1.9875691500e-4f, r, 1.3981999507e-3f);
  p = fmadd(p, r, 8.3334519073e-3f);
  p = fmadd(p, r, 4.1665795894e-2f);
  p = fmadd(p, r, 1.6666665459e-1f);
  p = fmadd(p, r, 5.0000001201e-1f);
  p = fmadd(p, r * r, r) + 1.0f;
  // 2^n from the bits of t, shifted as unsigned so the integer part above
  // the biased exponent leaves the word. n = 128 (x just below k_exp_hi)
  // has no float 2^n: scale by 2^127, then by 2.
  const bool top = n > 127.0f;
  const float scale = float_of(bits_of(select(top, t - 1.0f, t)) << 23);
  float y = p * scale;
  y = select(top, y * 2.0f, y);
  // Out-of-range x left garbage in t; NaN fails both compares and stays NaN.
  y = select(x < k_exp_lo, 0.0f, y);
  return select(x > k_exp_hi, __builtin_inff(), y);
}

[[gnu::always_inline]] inline float tanh_one(float x) {
  const float ax = float_of(bits_of(x) & ~k_sign_bit);
  // |x| < 0.625: odd polynomial, x + x^3 * q(x^2).
  const float z = ax * ax;
  float q = fmadd(-5.70498872745e-3f, z, 2.06390887954e-2f);
  q = fmadd(q, z, -5.37397155531e-2f);
  q = fmadd(q, z, 1.33314422036e-1f);
  q = fmadd(q, z, -3.33332819422e-1f);
  const float small = fmadd(q * z, ax, ax);
  // Otherwise 1 - 2 / (exp(2|x|) + 1): +-inf gives exactly 1, NaN stays NaN.
  const float large = 1.0f - 2.0f / (exp_one(ax + ax) + 1.0f);
  return float_of(bits_of(select(ax < 0.625f, small, large)) | (bits_of(x) & k_sign_bit));
}

// GELU, tanh form: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
constexpr float k_sqrt_2_over_pi = 0.7978845608f;
constexpr float k_gelu_cubic = 0.044715f;

void exp_shifted(const float* x, float shift, float* out, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = exp_one(x[i] - shift);
}

void tanh_map(const float* x, float* out, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) out[i] = tanh_one(x[i]);
}

void gelu(const float* x, float* out, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    const float v = x[i];
    const float u = k_sqrt_2_over_pi * (v + k_gelu_cubic * v * v * v);
    out[i] = 0.5f * v * (1.0f + tanh_one(u));
  }
}

void gelu_backward(const float* x, const float* g, float* out, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i) {
    const float v = x[i];
    const float u = k_sqrt_2_over_pi * (v + k_gelu_cubic * v * v * v);
    const float t = tanh_one(u);
    const float du = k_sqrt_2_over_pi * (1.0f + 3.0f * k_gelu_cubic * v * v);
    out[i] = g[i] * (0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * du);
  }
}

}  // namespace

// Declared extern in kernel_tier.h, so this definition has external linkage.
const kernel_tier_fns fns{&gemm, &qgemm, &quantize, &exp_shifted, &tanh_map, &gelu, &gelu_backward};

}  // namespace pelta::ops::detail::PELTA_KERNEL_TIER_NS
