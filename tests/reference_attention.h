// THE frozen multi-head attention chain: the primitive graph ops that
// nn::multi_head_attention used to build per head (slice q, k and v,
// transpose k, bmm, scale, softmax, bmm) plus the concat that merged the
// heads — 8H+1 nodes, or 8 for one head, which had no concat. The fused
// attention ops (autodiff/ops_attention.h) must match its values and
// adjoints bit for bit; the attention tests and bench_kernels both compare
// against this one copy. Do not "improve" it.
#pragma once

#include <cstdint>
#include <vector>

#include "autodiff/graph.h"
#include "autodiff/ops_attention.h"
#include "autodiff/ops_elementwise.h"
#include "autodiff/ops_linalg.h"

namespace pelta::ad::reference {

struct attention_nodes {
  node_id merged = invalid_node;  ///< [B,T,D], the heads' contexts side by side
  std::vector<node_id> probs;     ///< per head [B,T,T]
};

inline attention_nodes reference_attention(graph& g, node_id q, node_id k, node_id v,
                                           std::int64_t heads, float scale) {
  const std::int64_t dh = g.value(q).size(-1) / heads;
  attention_nodes out;
  std::vector<node_id> contexts;
  for (std::int64_t h = 0; h < heads; ++h) {
    const node_id qh = g.add_transform(make_slice_lastdim(h * dh, dh), {q});
    const node_id kh = g.add_transform(make_slice_lastdim(h * dh, dh), {k});
    const node_id vh = g.add_transform(make_slice_lastdim(h * dh, dh), {v});
    const node_id kt = g.add_transform(make_transpose_last2(), {kh});
    const node_id raw = g.add_transform(make_bmm(), {qh, kt});
    const node_id scores = g.add_transform(make_scale(scale), {raw});
    out.probs.push_back(g.add_transform(make_softmax_lastdim(), {scores}));
    contexts.push_back(g.add_transform(make_bmm(), {out.probs.back(), vh}));
  }
  out.merged = heads == 1 ? contexts[0] : g.add_transform(make_concat_lastdim(), contexts);
  return out;
}

/// The same block through the fused ops: H attention_probs nodes and one
/// attention_context node.
inline attention_nodes fused_attention(graph& g, node_id q, node_id k, node_id v,
                                       std::int64_t heads, float scale) {
  attention_nodes out;
  for (std::int64_t h = 0; h < heads; ++h)
    out.probs.push_back(g.add_transform(make_attention_probs(h, heads, scale), {q, k}));
  std::vector<node_id> parents = out.probs;
  parents.push_back(v);
  out.merged = g.add_transform(make_attention_context(), std::move(parents));
  return out;
}

}  // namespace pelta::ad::reference
