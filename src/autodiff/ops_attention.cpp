#include "autodiff/ops_attention.h"

#include <algorithm>

#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"
#include "tensor/scratch.h"

namespace pelta::ad {

namespace {

using ops::detail::finite_cache;
using ops::detail::gemm_accumulate;

// One head of one batch item: t rows of width d (the item's [T,D] block),
// of which the head owns columns [c0, c0 + dh).
struct head_view {
  std::int64_t t, d, c0, dh;
};

// The head's columns as a contiguous [t, dh] block.
void gather(const float* x, const head_view& v, float* out) {
  for (std::int64_t r = 0; r < v.t; ++r)
    std::copy_n(x + r * v.d + v.c0, v.dh, out + r * v.dh);
}

// The head's columns transposed into a contiguous [dh, t] block.
void gather_transposed(const float* x, const head_view& v, float* out) {
  for (std::int64_t r = 0; r < v.t; ++r)
    for (std::int64_t c = 0; c < v.dh; ++c) out[c * v.t + r] = x[r * v.d + v.c0 + c];
}

// A contiguous [t, dh] block into the head's columns.
void scatter(const float* src, const head_view& v, float* x) {
  for (std::int64_t r = 0; r < v.t; ++r)
    std::copy_n(src + r * v.dh, v.dh, x + r * v.d + v.c0);
}

// A contiguous [dh, t] block, transposed, into the head's columns.
void scatter_transposed(const float* src, const head_view& v, float* x) {
  for (std::int64_t r = 0; r < v.t; ++r)
    for (std::int64_t c = 0; c < v.dh; ++c) x[r * v.d + v.c0 + c] = src[c * v.t + r];
}

// c [m,n] = a [m,k] x b [k,n] into c's zeroed memory: one batch item of
// ops::bmm, with the B-finiteness cache ops::bmm keeps per item.
void product(const float* a, const float* b, float* c, std::int64_t m, std::int64_t k,
             std::int64_t n) {
  std::fill_n(c, m * n, 0.0f);
  finite_cache b_finite;
  gemm_accumulate(a, b, c, m, k, n, b_finite);
}

// body(i) for each batch item, across the pool once the batch clears the
// multiply-add count at which ops::bmm splits. Items write disjoint
// slices, so the split is bitwise invisible.
template <class F>
void for_each_item(std::int64_t batch, std::int64_t macs_per_item, const F& body) {
  if (batch >= 2 && batch * macs_per_item >= ops::detail::k_parallel_flops)
    parallel_for(batch, body);
  else
    for (std::int64_t i = 0; i < batch; ++i) body(i);
}

scratch_buffer take(std::int64_t count) {
  return scratch_arena::local().take(static_cast<std::size_t>(count));
}

class attention_probs_op final : public op {
public:
  attention_probs_op(std::int64_t head, std::int64_t heads, float scale)
      : head_{head}, heads_{heads}, scale_{scale} {
    PELTA_CHECK_MSG(heads >= 1 && head >= 0 && head < heads,
                    "attention head " << head << " of " << heads);
  }
  std::string_view name() const override { return "attention_probs"; }

  tensor forward(std::span<const tensor* const> in) override {
    PELTA_CHECK(in.size() == 2);
    const tensor& q = *in[0];
    const tensor& k = *in[1];
    PELTA_CHECK_MSG(q.ndim() == 3 && q.same_shape(k) && q.size(2) % heads_ == 0,
                    "attention_probs shapes " << to_string(q.shape()) << ", "
                                              << to_string(k.shape()) << " for " << heads_
                                              << " heads");
    const std::int64_t b = q.size(0), t = q.size(1), d = q.size(2);
    const head_view v{t, d, head_ * (d / heads_), d / heads_};
    tensor out{shape_t{b, t, t}};
    const float* pq = q.data().data();
    const float* pk = k.data().data();
    float* po = out.data().data();
    for_each_item(b, t * v.dh * t, [&](std::int64_t i) {
      const scratch_buffer qh = take(t * v.dh);
      const scratch_buffer kt = take(v.dh * t);
      gather(pq + i * t * d, v, qh.data());
      gather_transposed(pk + i * t * d, v, kt.data());
      const std::span<float> scores{po + i * t * t, static_cast<std::size_t>(t * t)};
      finite_cache kt_finite;
      gemm_accumulate(qh.data(), kt.data(), scores.data(), t, v.dh, t, kt_finite);
      for (float& s : scores) s = s * scale_;
      ops::softmax_rows(scores, scores, t);
    });
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor& out) const override {
    const tensor& q = *in[0];
    const tensor& k = *in[1];
    const std::int64_t b = q.size(0), t = q.size(1), d = q.size(2);
    const head_view v{t, d, head_ * (d / heads_), d / heads_};
    tensor dq{q.shape()};
    tensor dk{k.shape()};
    const float* pq = q.data().data();
    const float* pk = k.data().data();
    const float* pp = out.data().data();
    const float* pg = g.data().data();
    float* pdq = dq.data().data();
    float* pdk = dk.data().data();
    const auto tt = static_cast<std::size_t>(t * t);
    for_each_item(b, 2 * t * t * v.dh, [&](std::int64_t i) {
      const scratch_buffer dscores = take(t * t);
      const scratch_buffer kh = take(t * v.dh);
      const scratch_buffer qt = take(v.dh * t);
      const scratch_buffer part = take(t * v.dh);
      // The softmax adjoint, then the scale's: the adjoint of q_h k_hᵀ.
      ops::softmax_rows_backward({pp + i * t * t, tt}, {pg + i * t * t, tt}, dscores.span(), t);
      for (float& s : dscores.span()) s = s * scale_;
      // dq_h = dS k_h and dk_hᵀ = q_hᵀ dS, as the chain's bmm backward.
      gather(pk + i * t * d, v, kh.data());
      product(dscores.data(), kh.data(), part.data(), t, t, v.dh);
      scatter(part.data(), v, pdq + i * t * d);
      gather_transposed(pq + i * t * d, v, qt.data());
      product(qt.data(), dscores.data(), part.data(), v.dh, t, t);
      scatter_transposed(part.data(), v, pdk + i * t * d);
    });
    std::vector<tensor> grads;
    grads.push_back(std::move(dq));
    grads.push_back(std::move(dk));
    return grads;
  }

private:
  std::int64_t head_;
  std::int64_t heads_;
  float scale_;
};

class attention_context_op final : public op {
public:
  std::string_view name() const override { return "attention_context"; }

  tensor forward(std::span<const tensor* const> in) override {
    const tensor& v = check_shapes(in);
    const std::int64_t heads = static_cast<std::int64_t>(in.size()) - 1;
    const std::int64_t b = v.size(0), t = v.size(1), d = v.size(2), dh = d / heads;
    tensor out{v.shape()};
    const float* pv = v.data().data();
    float* po = out.data().data();
    for_each_item(b, t * t * d, [&](std::int64_t i) {
      const scratch_buffer vh = take(t * dh);
      const scratch_buffer part = take(t * dh);
      for (std::int64_t h = 0; h < heads; ++h) {
        const head_view hv{t, d, h * dh, dh};
        gather(pv + i * t * d, hv, vh.data());
        product(in[static_cast<std::size_t>(h)]->data().data() + i * t * t, vh.data(),
                part.data(), t, t, dh);
        scatter(part.data(), hv, po + i * t * d);
      }
    });
    return out;
  }

  std::vector<tensor> backward(const tensor& g, std::span<const tensor* const> in,
                               const tensor&) const override {
    const tensor& v = *in.back();
    const std::int64_t heads = static_cast<std::int64_t>(in.size()) - 1;
    const std::int64_t b = v.size(0), t = v.size(1), d = v.size(2), dh = d / heads;
    std::vector<tensor> grads;
    grads.reserve(in.size());
    for (std::int64_t h = 0; h < heads; ++h) grads.emplace_back(shape_t{b, t, t});
    grads.emplace_back(v.shape());
    const float* pv = v.data().data();
    const float* pg = g.data().data();
    float* pdv = grads.back().data().data();
    for_each_item(b, 2 * t * t * d, [&](std::int64_t i) {
      const scratch_buffer gh = take(t * dh);
      const scratch_buffer vt = take(dh * t);
      const scratch_buffer pt = take(t * t);
      const scratch_buffer part = take(t * dh);
      for (std::int64_t h = 0; h < heads; ++h) {
        const head_view hv{t, d, h * dh, dh};
        const float* p = in[static_cast<std::size_t>(h)]->data().data() + i * t * t;
        gather(pg + i * t * d, hv, gh.data());
        // dp_h = g_h v_hᵀ straight into its zeroed gradient; dv_h = p_hᵀ g_h.
        gather_transposed(pv + i * t * d, hv, vt.data());
        finite_cache vt_finite;
        gemm_accumulate(gh.data(), vt.data(),
                        grads[static_cast<std::size_t>(h)].data().data() + i * t * t, t, dh, t,
                        vt_finite);
        gather_transposed(p, head_view{t, t, 0, t}, pt.data());
        product(pt.data(), gh.data(), part.data(), t, t, dh);
        scatter(part.data(), hv, pdv + i * t * d);
      }
      if (heads >= 2) {
        float* dvi = pdv + i * t * d;
        for (std::int64_t j = 0; j < t * d; ++j) dvi[j] = dvi[j] + 0.0f;
      }
    });
    return grads;
  }

private:
  // Returns v after checking every parent against it.
  static const tensor& check_shapes(std::span<const tensor* const> in) {
    PELTA_CHECK_MSG(in.size() >= 2, "attention_context needs >= 1 head and v");
    const tensor& v = *in.back();
    const auto heads = static_cast<std::int64_t>(in.size()) - 1;
    PELTA_CHECK_MSG(v.ndim() == 3 && v.size(2) % heads == 0,
                    "attention_context v " << to_string(v.shape()) << " for " << heads
                                           << " heads");
    const shape_t probs_shape{v.size(0), v.size(1), v.size(1)};
    for (std::size_t h = 0; h + 1 < in.size(); ++h)
      PELTA_CHECK_MSG(in[h]->shape() == probs_shape,
                      "attention_context head " << h << " probs " << to_string(in[h]->shape())
                                                << ", want " << to_string(probs_shape));
    return v;
  }
};

}  // namespace

op_ptr make_attention_probs(std::int64_t head, std::int64_t heads, float scale) {
  return std::make_unique<attention_probs_op>(head, heads, scale);
}
op_ptr make_attention_context() { return std::make_unique<attention_context_op>(); }

}  // namespace pelta::ad
