// Public entry points of the dense kernels and the run-time tier choice.
// See kernels.h for the determinism contract and kernel_tier.h for the
// tiers. The loops themselves live in kernel_tier_impl.h, compiled once per
// tier; this file keeps every check, the zero-skip gate decision and the
// scratch checkouts, then calls the active tier.
#include "tensor/kernels.h"

#include <atomic>
#include <cstddef>

#include "tensor/check.h"
#include "tensor/kernel_tier.h"
#include "tensor/scratch.h"

namespace pelta::ops::detail {

namespace {

bool any_zero_in(const float* p, std::int64_t count) {
  return any_in_blocks(p, count, [](float x) { return x == 0.0f; });
}

// Supported tiers, ascending.
struct tier_list {
  kernel_tier tiers[3] = {};
  std::size_t count = 0;
};

// Whether this build contains tier t and this CPU (and OS) can run it.
// PELTA_KERNEL_TIERS_X86 is defined by src/tensor/CMakeLists.txt when it
// builds the avx2 and avx512 translation units (x86 with GCC or Clang).
bool cpu_runs(kernel_tier t) {
#if defined(PELTA_KERNEL_TIERS_X86)
  __builtin_cpu_init();
  switch (t) {
    case kernel_tier::baseline: return true;
    case kernel_tier::avx2: return __builtin_cpu_supports("avx2");
    case kernel_tier::avx512:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vnni");
  }
  return false;
#else
  return t == kernel_tier::baseline;
#endif
}

const tier_list& supported() {
  static const tier_list list = [] {
    tier_list l;
    for (kernel_tier t : {kernel_tier::baseline, kernel_tier::avx2, kernel_tier::avx512})
      if (cpu_runs(t)) l.tiers[l.count++] = t;
    return l;
  }();
  return list;
}

std::atomic<kernel_tier>& active_slot() {
  static std::atomic<kernel_tier> slot{supported().tiers[supported().count - 1]};
  return slot;
}

const kernel_tier_fns& fns_of(kernel_tier t) {
  switch (t) {
#if defined(PELTA_KERNEL_TIERS_X86)
    case kernel_tier::avx2: return tier_avx2::fns;
    case kernel_tier::avx512: return tier_avx512::fns;
#endif
    default: return tier_baseline::fns;
  }
}

}  // namespace

const char* kernel_tier_name(kernel_tier t) {
  switch (t) {
    case kernel_tier::baseline: return "baseline";
    case kernel_tier::avx2: return "avx2";
    case kernel_tier::avx512: return "avx512";
  }
  return "unknown";
}

std::span<const kernel_tier> supported_kernel_tiers() {
  return {supported().tiers, supported().count};
}

kernel_tier active_kernel_tier() { return active_slot().load(); }

const kernel_tier_fns& active_kernel_fns() { return fns_of(active_kernel_tier()); }

scoped_kernel_tier::scoped_kernel_tier(kernel_tier t) {
  PELTA_CHECK_MSG(cpu_runs(t), "kernel tier " << kernel_tier_name(t) << " is not supported here");
  previous_ = active_slot().exchange(t);
}

scoped_kernel_tier::~scoped_kernel_tier() {
  active_slot().store(previous_);
}

void gemm_accumulate(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
                     std::int64_t n, finite_cache& b_finite) {
  if (m <= 0 || n <= 0 || k <= 0) return;  // no terms: out is the base, untouched
  // Gate decided once per call, never inside the loops. A is pre-scanned
  // first (O(m*k), a 1/(2n) fraction of the GEMM): a dense A has nothing to
  // skip, so — exactly like the old lazy gate — it neither consults nor
  // scans B, and it runs the branch-free dense path outright. Only a call
  // whose A contains zeros pays the (cached, once-per-operand) B scan.
  const bool skip = any_zero_in(a, m * k) && b_finite.check(b, k * n);
  // Ragged n % 16 edge columns are packed into a zero-padded panel.
  scratch_buffer panel;
  if (n % k_gemm_nr != 0)
    panel = scratch_arena::local().take(static_cast<std::size_t>(k_gemm_kc * k_gemm_nr));
  active_kernel_fns().gemm(a, b, out, m, k, n, skip, panel.data());
}

void qgemm_pack_b(const std::int8_t* b, std::int64_t k, std::int64_t n, std::int8_t* packed) {
  constexpr std::int64_t NRQ = k_qgemm_nr;
  constexpr std::int64_t KGQ = k_qgemm_kg;
  const std::int64_t groups = qgemm_k_groups(k);
  const std::int64_t panels = (n + NRQ - 1) / NRQ;
  for (std::int64_t p = 0; p < panels; ++p) {
    std::int8_t* dst = packed + p * groups * NRQ * KGQ;
    for (std::int64_t g = 0; g < groups; ++g) {
      for (std::int64_t j = 0; j < NRQ; ++j) {
        const std::int64_t col = p * NRQ + j;
        for (std::int64_t kk = 0; kk < KGQ; ++kk) {
          const std::int64_t row = g * KGQ + kk;
          dst[g * NRQ * KGQ + j * KGQ + kk] =
              (col < n && row < k) ? b[row * n + col] : std::int8_t{0};
        }
      }
    }
  }
}

void qgemm(const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
           const std::int32_t* colsum, std::int32_t* out, std::int64_t m, std::int64_t k,
           std::int64_t n) {
  if (m <= 0 || n <= 0) return;
  PELTA_CHECK_MSG(lda >= qgemm_row_stride(k), "qgemm A row stride " << lda << " < k " << k);
  // |base| + |raw| <= k * 63 * (128 + 255): depth 65536 still clears int32.
  PELTA_CHECK_MSG(k <= 65536, "qgemm depth " << k << " overflows int32 accumulation");
  // The -128*colsum compensation is the accumulation base; the tiles then
  // add the raw shifted-u8 products on top (see kernels.h).
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out[i * n + j] = -128 * colsum[j];
  if (k <= 0) return;
  active_kernel_fns().qgemm(a, lda, packed, out, m, qgemm_k_groups(k), n);
}

}  // namespace pelta::ops::detail
