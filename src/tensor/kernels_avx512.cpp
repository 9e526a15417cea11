// The avx512 kernel tier: kernel_tier_impl.h compiled with this tier's flags
// (src/tensor/CMakeLists.txt). See tensor/kernel_tier.h.
#define PELTA_KERNEL_TIER_NS tier_avx512
#define PELTA_KERNEL_TIER_LEVEL 2
#include "tensor/kernel_tier_impl.h"
