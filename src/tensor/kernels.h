// Shared dense inner kernels for the tensor backends (ops.cpp, conv.cpp).
// Internal implementation surface — not part of the public API. detail::fmadd
// doubles as the repo-wide float-accumulation policy (pelta-lint rule R1):
// fl/aggregation routes its weighted accumulations through it too, so no
// layer's rounding sequence can drift with -ffp-contract.
//
// Determinism contract (see README "Tensor backend"): for every output
// element the k-accumulation order is ascending and expressed by the same
// source-level `acc += a * b` sequence on every code path (full register
// tiles, row tails, column tails). A row's bits therefore never depend on
// which tile or parallel chunk it landed in, which is what lets matmul and
// the conv batch loops split work across PELTA_THREADS without changing a
// single bit of the result.
#pragma once

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>

namespace pelta::ops::detail {

/// Register-tile extents of the blocked GEMM in kernels.cpp. Callers that
/// split rows across threads should round their chunk grain up to
/// k_gemm_mr so mid-matrix chunks keep full row tiles (values are
/// grain-independent either way; this is purely a throughput concern).
inline constexpr std::int64_t k_gemm_mr = 4;   // rows per register tile
inline constexpr std::int64_t k_gemm_nr = 16;  // columns per register tile

/// Below this many multiply-adds per call the pool submit overhead beats a
/// split of a GEMM's rows or batch items (ops::matmul, ops::bmm, the fused
/// attention ops).
inline constexpr std::int64_t k_parallel_flops = 1 << 15;

/// Single-rounding fused multiply-add where the ISA has it, separate
/// mul+add where it does not — fixed at compile time. Every kernel path
/// (full tiles, tails, packed edges) and the frozen reference kernels in
/// tests/bench accumulate through this helper, so each output element sees
/// the identical rounding sequence no matter which instantiation computed
/// it. Without this, -ffp-contract is free to fuse some paths and not
/// others, silently breaking bit-identity between tile shapes (and with it
/// the across-PELTA_THREADS guarantee) on FMA targets. Always inlined, so
/// the ISA-flagged kernel tiers (kernel_tier.h) never emit an out-of-line
/// copy that the linker could hand to baseline callers.
///
/// The choice is made once per build, not per translation unit: the build
/// sets PELTA_FMADD_FUSED from its base compile flags
/// (src/tensor/CMakeLists.txt). A kernel tier's ISA flags can imply FMA —
/// Clang's -mavx512f defines __FMA__ — and keying on the tier's own
/// __FMA__ would then fuse that tier alone and change its bits.
#if !defined(PELTA_FMADD_FUSED)
#if defined(PELTA_KERNEL_TIER_LEVEL)
#error "kernel tier sources need the build-level PELTA_FMADD_FUSED"
#elif defined(__FMA__) || defined(__ARM_FEATURE_FMA)
#define PELTA_FMADD_FUSED 1
#else
#define PELTA_FMADD_FUSED 0
#endif
#elif !defined(PELTA_KERNEL_TIER_LEVEL) && \
    PELTA_FMADD_FUSED != (defined(__FMA__) || defined(__ARM_FEATURE_FMA))
// Outside the tier sources every translation unit sees the base flags, so
// the build-level choice must match them; a mismatch means the build's FMA
// probe missed a flag that this translation unit was compiled with.
#error "PELTA_FMADD_FUSED disagrees with this translation unit's FMA flags"
#endif
[[gnu::always_inline]] inline float fmadd(float a, float b, float c) {
#if PELTA_FMADD_FUSED
  return std::fma(a, b, c);
#else
  return a * b + c;  // no FMA on this target: contraction cannot diverge
#endif
}

/// Whether `hit` holds for any element of p[0, count). The zero-skip gate's
/// two scans (zeros in A, Inf/NaN in B) run through it: each block of
/// k_gate_scan_block elements is a branch-free reduction that vectorizes,
/// with one early exit per block, so a hit near the front still returns
/// early. The answer is the same as an element-by-element scan's.
inline constexpr std::int64_t k_gate_scan_block = 256;
template <class Hit>
[[gnu::always_inline]] inline bool any_in_blocks(const float* p, std::int64_t count, Hit hit) {
  std::int64_t i = 0;
  for (; i + k_gate_scan_block <= count; i += k_gate_scan_block) {
    unsigned any = 0;
    for (std::int64_t j = 0; j < k_gate_scan_block; ++j) any |= hit(p[i + j]);
    if (any != 0) return true;
  }
  unsigned any = 0;
  for (; i < count; ++i) any |= hit(p[i]);
  return any != 0;
}

/// Whether no element of p[0, count) is Inf or NaN. The test is on the bits
/// (exponent all ones), so it needs no float compare and vectorizes on
/// every ISA.
inline bool all_finite(const float* p, std::int64_t count) {
  return !any_in_blocks(p, count, [](float x) {
    return (std::bit_cast<std::uint32_t>(x) & 0x7f800000u) == 0x7f800000u;
  });
}

/// Lazily computed finiteness of one B operand: -1 unknown, 0 has
/// non-finite values, 1 all finite. Chunks of one parallel split share the
/// cache so B is scanned at most once per operand (the duplicated-scan race
/// is benign — both writers store the same value). Lock discipline
/// (docs/ARCHITECTURE.md): a value-idempotent atomic like this carries no
/// PELTA_GUARDED_BY — there is no mutex, and every racing writer computes
/// the identical value from the same immutable operand.
class finite_cache {
public:
  bool check(const float* b, std::int64_t count) {
    int s = state_.load(std::memory_order_relaxed);
    if (s < 0) {
      s = all_finite(b, count) ? 1 : 0;
      state_.store(s, std::memory_order_relaxed);
    }
    return s == 1;
  }

private:
  std::atomic<int> state_{-1};
};

// Blocked GEMM: out[m,n] += a[m,k] * b[k,n]; out must hold the accumulation
// base (zeros or bias). Per output element the k-order matches the classic
// i-k-j loop bit for bit. The zero-skip fast path is only sound when B is
// fully finite: 0 * Inf and 0 * NaN are NaN, and a poisoned update must
// surface, not vanish through a zero-weight row — the gate is decided ONCE
// per call, never inside the inner loops: A is pre-scanned for zeros
// (dense A neither consults nor scans B, as before), and only a zero-
// bearing A pays the B scan, cached in `b_finite` across calls on the same
// operand.
void gemm_accumulate(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                     std::int64_t n, finite_cache& b_finite);

// ---- int8 quantized GEMM ----------------------------------------------------
//
// Operand encoding (see tensor/quantized_tensor.h for the quantization
// helpers that produce it):
//   * A holds activations as SHIFTED unsigned bytes: stored value
//     a_u8 = q_a + 128 with q_a in [-127, 127], so a_u8 in [1, 255].
//   * B holds per-output-channel 7-bit weights: q_w in [-63, 63] as plain
//     int8. The 7-bit clamp is what makes the AVX2 vpmaddubsw path exact:
//     a u8*s8 product pair is bounded by 2 * 255 * 63 = 32130 < 2^15 - 1,
//     so the instruction's saturating s16 pair-sum can never saturate.
//   * The kernel computes out[i][j] = sum_k (a_u8 - 128) * q_w as int32 by
//     accumulating the raw sum_k a_u8 * q_w and pre-loading the output with
//     the -128 * colsum[j] compensation term (colsum[j] = sum_k q_w[kk][j]).
//     Integer accumulation is exact and associative, so every path (AVX2,
//     scalar fallback, any row split across PELTA_THREADS) produces
//     bit-identical int32 results by construction.

/// Bytes per k-group: vpmaddubsw consumes 4 consecutive k bytes per lane.
inline constexpr std::int64_t k_qgemm_kg = 4;
/// Packed panel width (columns per panel), matching the fp32 tile width.
inline constexpr std::int64_t k_qgemm_nr = 16;

/// Number of 4-wide k-groups covering k (k zero-padded up to a multiple of 4).
inline std::int64_t qgemm_k_groups(std::int64_t k) {
  return (k + k_qgemm_kg - 1) / k_qgemm_kg;
}

/// Required row stride (in bytes) of an A panel for depth k. Bytes in
/// [k, stride) of each row are don't-care: they only ever multiply the
/// packed B pad entries, which are zero.
inline std::int64_t qgemm_row_stride(std::int64_t k) {
  return qgemm_k_groups(k) * k_qgemm_kg;
}

/// Packed-B size in int8 elements for a [k, n] weight matrix: panels of 16
/// columns x qgemm_k_groups(k) groups x 64 bytes, n padded up to 16.
inline std::int64_t qgemm_packed_size(std::int64_t k, std::int64_t n) {
  return (n + k_qgemm_nr - 1) / k_qgemm_nr * qgemm_k_groups(k) * k_qgemm_nr * k_qgemm_kg;
}

/// Pack row-major int8 B [k, n] into the kernel layout
/// [n_pad/16][k_groups][16 columns][4 k-bytes]; pad columns (n -> n_pad)
/// and pad k-bytes (k -> 4*k_groups) are zero-filled, which is what makes
/// A's pad bytes don't-care and keeps the edge panels fixed-trip.
void qgemm_pack_b(const std::int8_t* b, std::int64_t k, std::int64_t n, std::int8_t* packed);

/// out[m,n] (int32, row stride n, OVERWRITTEN) = (a - 128) * b using packed
/// B and its column sums. a: shifted-u8 rows with row stride lda >=
/// qgemm_row_stride(k). Callers may split m across threads at any grain —
/// rows are independent and integer-exact, so the split is bitwise
/// invisible (round the grain to k_gemm_mr for full row tiles, as fp32).
void qgemm(const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
           const std::int32_t* colsum, std::int32_t* out, std::int64_t m, std::int64_t k,
           std::int64_t n);

}  // namespace pelta::ops::detail
