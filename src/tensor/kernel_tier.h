// Run-time ISA tier selection for the dense kernels (kernels.cpp,
// quantized_tensor.cpp) and the activation transcendentals (ops.cpp).
// Internal implementation surface — not part of the public API.
//
// Every tier is the SAME template source (kernel_tier_impl.h) compiled in its
// own translation unit with added ISA-enable flags and -ffp-contract=off:
//
//   baseline  the build's own flags (SSE2 on a portable x86-64 build)
//   avx2      + AVX2
//   avx512    + AVX-512 F/VL/BW/VNNI
//
// No tier adds FMA, and contraction is off, so each fp32 output element sees
// the build's detail::fmadd rounding sequence on every tier; the int8 path is
// integer-exact. The activation transcendentals (exp, tanh, GELU) are
// polynomials over IEEE add, mul, div, compare/select and integer bit ops
// only, so they follow the same rule. All tiers therefore produce identical
// bits, and picking the widest one the CPU supports changes speed only. The
// choice is made once, at first use, with __builtin_cpu_supports.
#pragma once

#include <cstdint>
#include <span>

namespace pelta::ops::detail {

enum class kernel_tier : int { baseline = 0, avx2 = 1, avx512 = 2 };

/// Geometry shared by the dispatcher and the tier bodies.
inline constexpr std::int64_t k_gemm_kc = 1024;  // fp32 k-block (ascending)
inline constexpr std::int64_t k_gemm_wide = 64;  // fp32 main tile width

/// One tier's kernel bodies. The public entry points in kernels.cpp and
/// ops.cpp keep every check, the zero-skip gate decision and the scratch
/// checkout; a tier only runs the loops.
struct kernel_tier_fns {
  /// gemm_accumulate after its gate: `skip` enables the zero-skip path.
  /// `panel` holds k_gemm_kc * k_gemm_nr floats when n % k_gemm_nr != 0.
  void (*gemm)(const float* a, const float* b, float* out, std::int64_t m, std::int64_t k,
               std::int64_t n, bool skip, float* panel);
  /// qgemm's tile sweep; `out` already holds the -128 * colsum base and
  /// `groups` = qgemm_k_groups(k) > 0.
  void (*qgemm)(const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
                std::int32_t* out, std::int64_t m, std::int64_t groups, std::int64_t n);
  /// Vector prefix of quant::quantize_activations: codes the first
  /// returned-count elements (0 where the tier has no vector form); the
  /// caller's scalar loop codes the rest with the identical result.
  std::int64_t (*quantize)(const float* x, std::int64_t count, float inv, std::uint8_t* out);
  /// out[i] = exp(x[i] - shift): ops::exp with shift 0, and the softmax row
  /// exponentials with the row maximum.
  void (*exp_shifted)(const float* x, float shift, float* out, std::int64_t count);
  void (*tanh)(const float* x, float* out, std::int64_t count);
  /// GELU (tanh form) and its derivative times the upstream gradient g.
  void (*gelu)(const float* x, float* out, std::int64_t count);
  void (*gelu_backward)(const float* x, const float* g, float* out, std::int64_t count);
};

const char* kernel_tier_name(kernel_tier t);

/// Tiers this build contains and this CPU can run, ascending; always starts
/// with baseline.
std::span<const kernel_tier> supported_kernel_tiers();

/// The tier the kernels dispatch to now — the widest supported one unless a
/// scoped_kernel_tier is alive — and its bodies.
kernel_tier active_kernel_tier();
const kernel_tier_fns& active_kernel_fns();

/// Test hook: routes every kernel call, process-wide and on every pool
/// thread, to a supported tier `t` while alive, then restores the previous
/// tier. Since all tiers give the same bits, a kernel call racing the
/// switch is still correct; it only runs on either tier.
class scoped_kernel_tier {
public:
  explicit scoped_kernel_tier(kernel_tier t);
  ~scoped_kernel_tier();
  scoped_kernel_tier(const scoped_kernel_tier&) = delete;
  scoped_kernel_tier& operator=(const scoped_kernel_tier&) = delete;

private:
  kernel_tier previous_ = kernel_tier::baseline;
};

// Per-tier tables, one per tier translation unit (kernels_<tier>.cpp).
namespace tier_baseline {
extern const kernel_tier_fns fns;
}
namespace tier_avx2 {
extern const kernel_tier_fns fns;
}
namespace tier_avx512 {
extern const kernel_tier_fns fns;
}

}  // namespace pelta::ops::detail
