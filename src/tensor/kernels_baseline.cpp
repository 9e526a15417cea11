// The baseline kernel tier: kernel_tier_impl.h compiled with this tier's flags
// (src/tensor/CMakeLists.txt). See tensor/kernel_tier.h.
#define PELTA_KERNEL_TIER_NS tier_baseline
#define PELTA_KERNEL_TIER_LEVEL 0
#include "tensor/kernel_tier_impl.h"
