#include "nn/attention.h"

#include <cmath>

#include "autodiff/ops_attention.h"

namespace pelta::nn {

multi_head_attention::multi_head_attention(param_store& store, rng& gen, std::string name,
                                           std::int64_t dim, std::int64_t heads)
    : name_{std::move(name)},
      dim_{dim},
      heads_{heads},
      q_{store, gen, name_ + ".q", dim, dim},
      k_{store, gen, name_ + ".k", dim, dim},
      v_{store, gen, name_ + ".v", dim, dim},
      out_{store, gen, name_ + ".out", dim, dim} {
  PELTA_CHECK_MSG(dim % heads == 0, "attention dim " << dim << " not divisible by " << heads);
}

ad::node_id multi_head_attention::apply(ad::graph& g, ad::node_id x) const {
  const std::int64_t dh = dim_ / heads_;
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

  const ad::node_id q = q_.apply(g, x);
  const ad::node_id k = k_.apply(g, x);
  const ad::node_id v = v_.apply(g, x);

  std::vector<ad::node_id> context_parents;
  context_parents.reserve(static_cast<std::size_t>(heads_) + 1);
  for (std::int64_t h = 0; h < heads_; ++h)
    context_parents.push_back(g.add_transform(ad::make_attention_probs(h, heads_, inv_sqrt_dh),
                                              {q, k}, name_ + ".softmax.h" + std::to_string(h)));
  context_parents.push_back(v);
  const ad::node_id merged =
      g.add_transform(ad::make_attention_context(), std::move(context_parents), name_ + ".merge");
  return out_.apply(g, merged);
}

}  // namespace pelta::nn
