#include "models/trainer.h"

#include <algorithm>
#include <cstdio>

#include "autodiff/ops_loss.h"
#include "nn/optimizer.h"
#include "tensor/parallel.h"

namespace pelta::models {

float loss_and_grad(model& m, const data::batch& b) {
  forward_pass fp = m.forward(b.images, ad::norm_mode::train);
  const ad::node_id labels = fp.graph.add_constant(b.labels, "labels");
  const ad::node_id loss =
      fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, labels}, "loss");
  fp.graph.backward(loss);
  fp.graph.accumulate_param_grads();
  return fp.graph.value(loss).item();
}

float loss_and_grad_sharded(model& m, const data::batch& b, std::int64_t shards) {
  const std::int64_t n = b.images.size(0);
  shards = std::clamp<std::int64_t>(shards, 1, n);
  if (shards == 1) return loss_and_grad(m, b);

  const std::int64_t c = b.images.size(1), h = b.images.size(2), w = b.images.size(3);
  // Each shard keeps only its parameter adjoints. Its graph (activations and
  // every other adjoint) is freed inside the task, by the thread that built
  // it, so no thread's allocator ever holds more than one shard graph and
  // peak memory does not depend on which thread ran which shard.
  std::vector<std::vector<std::pair<ad::parameter*, tensor>>> shard_grads(
      static_cast<std::size_t>(shards));
  std::vector<float> shard_losses(static_cast<std::size_t>(shards), 0.0f);

  parallel_for(shards, [&](std::int64_t s) {
    const std::int64_t lo = s * n / shards, hi = (s + 1) * n / shards;
    const std::int64_t take = hi - lo;
    tensor images{shape_t{take, c, h, w}};
    tensor labels{shape_t{take}};
    auto src = b.images.data();
    std::copy(src.begin() + lo * c * h * w, src.begin() + hi * c * h * w,
              images.data().begin());
    for (std::int64_t i = 0; i < take; ++i) labels[i] = b.labels[lo + i];

    forward_pass fp = m.forward(images, ad::norm_mode::train);
    const ad::node_id lab = fp.graph.add_constant(labels, "labels");
    const ad::node_id loss =
        fp.graph.add_transform(ad::make_cross_entropy(), {fp.logits, lab}, "loss");
    const float frac = static_cast<float>(take) / static_cast<float>(n);
    // Seed with the shard's weight so the merged gradient is the batch mean.
    fp.graph.backward_from(loss, tensor::scalar(frac));
    shard_losses[static_cast<std::size_t>(s)] = fp.graph.value(loss).item() * frac;
    for (const auto& [param, adjoint] : fp.graph.param_adjoints())
      shard_grads[static_cast<std::size_t>(s)].emplace_back(param, *adjoint);
  });

  // Merge in shard order, each shard's adjoints in graph node order (what
  // graph::accumulate_param_grads does): deterministic regardless of thread
  // scheduling.
  double total_loss = 0.0;
  for (std::int64_t s = 0; s < shards; ++s) {
    for (const auto& [param, adjoint] : shard_grads[static_cast<std::size_t>(s)])
      param->grad.add_(adjoint);
    total_loss += shard_losses[static_cast<std::size_t>(s)];
  }
  return static_cast<float>(total_loss);
}

train_report train_model(model& m, const data::dataset& ds, const train_config& config) {
  nn::adam opt{config.lr, 0.9f, 0.999f, 1e-8f, config.weight_decay};
  data::batch_iterator batches{ds.train_size(), config.batch_size, rng{config.seed}};

  float last_loss = 0.0f;
  for (std::int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    double epoch_loss = 0.0;
    const std::int64_t nb = batches.batches_per_epoch();
    for (std::int64_t i = 0; i < nb; ++i) {
      const data::batch b = ds.gather_train(batches.next());
      m.params().zero_grads();
      epoch_loss += loss_and_grad_sharded(m, b, config.shards);
      opt.step(m.params());
    }
    last_loss = static_cast<float>(epoch_loss / static_cast<double>(nb));
    if (config.verbose)
      std::printf("  [%s] epoch %lld/%lld loss %.4f\n", m.name().c_str(),
                  static_cast<long long>(epoch + 1), static_cast<long long>(config.epochs),
                  last_loss);
  }

  train_report report;
  report.final_loss = last_loss;
  report.train_accuracy = accuracy(m, ds.train_images(), ds.train_labels());
  report.test_accuracy = accuracy(m, ds.test_images(), ds.test_labels());
  return report;
}

}  // namespace pelta::models
