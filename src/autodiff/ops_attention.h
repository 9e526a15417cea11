// Fused multi-head attention ops.
//
// A multi-head attention block over q, k, v [B,T,D] with H heads of width
// dh = D/H is H attention_probs vertices (one per head) and one
// attention_context vertex that merges the heads, instead of the
// slice/transpose/bmm/scale/softmax/bmm chain per head and a concat. The
// values and every adjoint are bitwise those of that chain, down to the sign
// of zero: each product is the chain's GEMM on the same operands, gathered
// from the head's columns into scratch memory, and the scale and softmax
// run the chain's own row routines.
#pragma once

#include "autodiff/op.h"

namespace pelta::ad {

/// Parents (q, k), both [B,T,D] -> [B,T,T]: softmax(q_h k_hᵀ * scale) over
/// the last dimension, where q_h and k_h are the columns
/// [head*dh, (head+1)*dh) of `heads` equal slices. The backward returns
/// [B,T,D] gradients that are zero outside the head's columns.
op_ptr make_attention_probs(std::int64_t head, std::int64_t heads, float scale);

/// Parents (p_0, ..., p_{H-1}, v) with p_h [B,T,T] and v [B,T,D] ->
/// [B,T,D], whose columns [h*dh, (h+1)*dh) hold p_h v_h. For H >= 2 the v
/// gradient is written as x + 0.0f, the sum the per-head chain formed from
/// H zero-padded slice gradients (it turns -0 into +0).
op_ptr make_attention_context();

}  // namespace pelta::ad
