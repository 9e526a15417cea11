// Dense tensor kernels: elementwise maps, reductions, matrix products.
//
// These free functions are the numeric backbone used by the autodiff ops;
// they perform full shape checking and return fresh tensors, except
// add_rows_ (in place), and exp_shifted and the softmax row routines (into
// the caller's rows).
#pragma once

#include <functional>

#include "tensor/tensor.h"

namespace pelta::ops {

// ---- elementwise binary -----------------------------------------------------

tensor add(const tensor& a, const tensor& b);
tensor sub(const tensor& a, const tensor& b);
tensor mul(const tensor& a, const tensor& b);
tensor div(const tensor& a, const tensor& b);

// ---- scalar -----------------------------------------------------------------

tensor add_scalar(const tensor& a, float s);
tensor mul_scalar(const tensor& a, float s);

// ---- elementwise unary --------------------------------------------------------

tensor neg(const tensor& a);
tensor relu(const tensor& a);
tensor log(const tensor& a);
tensor sqrt(const tensor& a);
tensor abs(const tensor& a);
/// -1, 0 or +1 per element (the FGSM/PGD "sign" operator).
tensor sign(const tensor& a);
tensor clamp(const tensor& a, float lo, float hi);
/// Apply an arbitrary float->float map (used by tests and data generation).
/// Like every elementwise op, large tensors split across the thread pool:
/// `f` must be pure (no internal state, safe to call concurrently and in
/// any element order).
tensor map(const tensor& a, const std::function<float(float)>& f);

// ---- activation transcendentals -----------------------------------------------
//
// exp, tanh and GELU run in-repo polynomial kernels (tensor/kernel_tier.h),
// not libm: within 1 ulp, bit-identical on every kernel tier and on every
// host, whatever its libm version. exp is exactly +0 below FLT_MIN's range
// and +inf above FLT_MAX's; tanh(+-inf) is +-1; NaN propagates through all
// of them.

tensor exp(const tensor& a);
tensor tanh(const tensor& a);
/// out[i] = exp(x[i] - shift), the row exponential of softmax; out and x
/// must have the same size.
void exp_shifted(std::span<const float> x, float shift, std::span<float> out);
/// Softmax of each len-wide row of x into out, which has the same size and
/// may be x itself: the row maximum as shift, exp_shifted, a double sum and
/// one float reciprocal multiply. The one row routine behind the softmax
/// graph op and the fused attention probabilities (autodiff/ops_attention).
void softmax_rows(std::span<const float> x, std::span<float> out, std::int64_t len);
/// The softmax gradient per len-wide row: out = s * (g - <g, s>) for the
/// probabilities s and their adjoint g, the dot product in double. out may
/// be g itself.
void softmax_rows_backward(std::span<const float> s, std::span<const float> g,
                           std::span<float> out, std::int64_t len);
/// GELU, tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))).
tensor gelu(const tensor& x);
/// g * d gelu(x) / dx, elementwise; g and x must have the same shape.
tensor gelu_backward(const tensor& g, const tensor& x);

// ---- row broadcast (biases) ------------------------------------------------------

/// a[r, c] += row[c], in place, over `a` viewed as rows of row.numel()
/// elements (a.numel() must be a multiple). Rows ascending.
void add_rows_(tensor& a, const tensor& row);
/// Sum of the rows of `a` viewed as rows of numel_of(row_shape) elements,
/// shaped row_shape: the gradient of add_rows_ with respect to `row`. Each
/// column accumulates in float over ascending rows.
tensor sum_rows(const tensor& a, shape_t row_shape);

// ---- reductions ---------------------------------------------------------------

float sum(const tensor& a);
float mean(const tensor& a);
float max(const tensor& a);
float min(const tensor& a);
/// Index of the maximum element (flat index).
std::int64_t argmax(const tensor& a);
/// Argmax over the last dimension; returns a tensor of indices-as-floats with
/// the leading shape. For logits [B, C] this yields predictions [B].
tensor argmax_lastdim(const tensor& a);

/// l2 norm of the whole tensor.
float norm_l2(const tensor& a);
/// l-infinity norm of the whole tensor.
float norm_linf(const tensor& a);
/// Dot product of two same-shape tensors.
float dot(const tensor& a, const tensor& b);

// ---- linear algebra -------------------------------------------------------------

/// [M,K] x [K,N] -> [M,N].
tensor matmul(const tensor& a, const tensor& b);
/// [..., K] x [K, N] -> [..., N]: matmul with the leading dimensions of `a`
/// as rows, read in place (bitwise the matmul of a reshaped copy).
tensor matmul_lastdim(const tensor& a, const tensor& b);
/// Batched [B,M,K] x [B,K,N] -> [B,M,N].
tensor bmm(const tensor& a, const tensor& b);
/// [M,N] -> [N,M].
tensor transpose2d(const tensor& a);
/// [B,M,N] -> [B,N,M].
tensor transpose_last2(const tensor& a);

}  // namespace pelta::ops
