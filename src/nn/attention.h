// Multi-head self-attention (Vaswani et al.) over the fused attention ops
// (autodiff/ops_attention.h): after the q, k and v projections, one
// attention_probs vertex per head and one attention_context vertex that
// merges the heads, then the output projection.
//
// The per-head attention probability nodes are tagged
// "<name>.softmax.h<k>" so the Self-Attention Gradient Attack (SAGA) can
// read the attention weight matrices W^(att)_{l,i} of Eq. 4 from a clear
// (non-shielded) region of the graph; the merged heads are "<name>.merge".
#pragma once

#include "nn/layers.h"

namespace pelta::nn {

class multi_head_attention {
public:
  multi_head_attention(param_store& store, rng& gen, std::string name, std::int64_t dim,
                       std::int64_t heads);

  /// x [B,T,D] -> [B,T,D].
  ad::node_id apply(ad::graph& g, ad::node_id x) const;

  std::int64_t heads() const { return heads_; }
  const std::string& name() const { return name_; }

private:
  std::string name_;
  std::int64_t dim_;
  std::int64_t heads_;
  token_linear_layer q_;
  token_linear_layer k_;
  token_linear_layer v_;
  token_linear_layer out_;
};

}  // namespace pelta::nn
