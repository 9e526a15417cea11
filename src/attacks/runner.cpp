#include "attacks/runner.h"

#include <algorithm>
#include <atomic>

#include "tensor/parallel.h"

namespace pelta::attacks {

const char* attack_name(attack_kind kind) {
  switch (kind) {
    case attack_kind::fgsm: return "FGSM";
    case attack_kind::pgd: return "PGD";
    case attack_kind::mim: return "MIM";
    case attack_kind::cw: return "C&W";
    case attack_kind::apgd: return "APGD";
  }
  return "?";
}

suite_params table2_cifar_params() {
  suite_params p;
  p.eps = 0.031f;
  p.eps_step = 0.00155f;
  p.pgd_steps = 20;
  p.mim_mu = 1.0f;
  p.apgd_rho = 0.75f;
  p.apgd_restarts = 1;
  p.cw_confidence = 50.0f;
  p.cw_step = 0.00155f;
  p.cw_steps = 30;
  p.saga_alpha_k = 2.0e-4f;
  p.saga_eps_step = 0.0031f;
  return p;
}

suite_params table2_imagenet_params() {
  suite_params p = table2_cifar_params();
  p.eps = 0.062f;
  p.eps_step = 0.0031f;
  p.cw_step = 0.0031f;
  p.saga_alpha_k = 0.001f;
  p.saga_eps_step = 0.0031f;
  return p;
}

suite_params params_for_dataset(const std::string& dataset_name) {
  return dataset_name == "imagenet_like" ? table2_imagenet_params() : table2_cifar_params();
}

oracle_factory clear_oracle_factory(const models::model& m) {
  const models::model* mp = &m;
  return [mp](std::uint64_t /*seed*/) { return make_clear_oracle(*mp); };
}

oracle_factory shielded_oracle_factory(const models::model& m) {
  const models::model* mp = &m;
  return [mp](std::uint64_t seed) { return make_shielded_oracle(*mp, seed); };
}

std::vector<std::int64_t> correctly_classified_indices(const models::model& m,
                                                       const data::dataset& ds,
                                                       std::int64_t max_samples) {
  // A row of predict() is the batch-1 prediction of its sample, so the
  // predictions of a prefix are those of the whole split: predict prefixes
  // of doubling length and stop as soon as enough candidates are found.
  const tensor& images = ds.test_images();
  const std::int64_t n = ds.test_size();
  const std::int64_t per_image = n > 0 ? images.numel() / n : 0;
  std::vector<std::int64_t> out;
  for (std::int64_t lo = 0, len = std::max<std::int64_t>(max_samples, 1);
       lo < n && static_cast<std::int64_t>(out.size()) < max_samples; lo += len, len *= 2) {
    const std::int64_t hi = std::min(n, lo + len);
    shape_t part_shape = images.shape();
    part_shape[0] = hi - lo;
    tensor part{std::move(part_shape)};
    std::copy_n(images.data().begin() + lo * per_image, (hi - lo) * per_image,
                part.data().begin());
    const tensor preds = predict(m, part);
    for (std::int64_t i = lo; i < hi && static_cast<std::int64_t>(out.size()) < max_samples; ++i)
      if (static_cast<std::int64_t>(preds[i - lo]) == ds.test_label(i)) out.push_back(i);
  }
  return out;
}

namespace {

attack_result dispatch(attack_kind kind, gradient_oracle& oracle, const tensor& x0,
                       std::int64_t label, const suite_params& p, rng& sample_rng) {
  switch (kind) {
    case attack_kind::fgsm: {
      fgsm_config c;
      c.eps = p.eps;
      return run_fgsm(oracle, x0, label, c);
    }
    case attack_kind::pgd: {
      pgd_config c;
      c.eps = p.eps;
      c.eps_step = p.eps_step;
      c.steps = p.pgd_steps;
      return run_pgd(oracle, x0, label, c);
    }
    case attack_kind::mim: {
      mim_config c;
      c.eps = p.eps;
      c.eps_step = p.eps_step;
      c.steps = p.pgd_steps;
      c.mu = p.mim_mu;
      return run_mim(oracle, x0, label, c);
    }
    case attack_kind::cw: {
      cw_config c;
      c.confidence = p.cw_confidence;
      c.eps_step = p.cw_step;
      c.steps = p.cw_steps;
      return run_cw(oracle, x0, label, c);
    }
    case attack_kind::apgd: {
      apgd_config c;
      c.eps = p.eps;
      c.max_queries = p.apgd_queries;
      c.restarts = p.apgd_restarts;
      c.rho = p.apgd_rho;
      return run_apgd(oracle, x0, label, c, sample_rng);
    }
  }
  throw error{"unknown attack kind"};
}

}  // namespace

robust_eval evaluate_attack(const models::model& m, const data::dataset& ds, attack_kind kind,
                            const suite_params& params, const oracle_factory& factory,
                            std::int64_t max_samples, std::uint64_t seed) {
  const std::vector<std::int64_t> candidates = correctly_classified_indices(m, ds, max_samples);
  PELTA_CHECK_MSG(!candidates.empty(), "model classifies no test sample correctly");

  const rng root{seed};
  // Lock-free on purpose (lock discipline, docs/ARCHITECTURE.md): these are
  // commutative-sum atomics incremented from parallel_for chunks — order
  // cannot affect the integer totals, so no mutex / PELTA_GUARDED_BY is
  // needed and fetch-add contention is the only synchronization.
  std::atomic<std::int64_t> successes{0};
  std::atomic<std::int64_t> total_queries{0};

  parallel_for(static_cast<std::int64_t>(candidates.size()), [&](std::int64_t i) {
    rng sample_rng = root.fork(static_cast<std::uint64_t>(i));
    auto oracle = factory(sample_rng.next_u64());
    const std::int64_t idx = candidates[static_cast<std::size_t>(i)];
    const attack_result r =
        dispatch(kind, *oracle, ds.test_image(idx), ds.test_label(idx), params, sample_rng);
    if (r.misclassified) successes.fetch_add(1, std::memory_order_relaxed);
    total_queries.fetch_add(r.queries, std::memory_order_relaxed);
  });

  robust_eval out;
  out.samples = static_cast<std::int64_t>(candidates.size());
  out.attack_successes = successes.load();
  out.robust_accuracy =
      1.0f - static_cast<float>(out.attack_successes) / static_cast<float>(out.samples);
  out.mean_queries = static_cast<double>(total_queries.load()) / static_cast<double>(out.samples);
  return out;
}

robust_eval evaluate_random_uniform(const models::model& m, const data::dataset& ds, float eps,
                                    std::int64_t max_samples, std::uint64_t seed) {
  const std::vector<std::int64_t> candidates = correctly_classified_indices(m, ds, max_samples);
  PELTA_CHECK_MSG(!candidates.empty(), "model classifies no test sample correctly");

  const rng root{seed};
  std::atomic<std::int64_t> successes{0};
  parallel_for(static_cast<std::int64_t>(candidates.size()), [&](std::int64_t i) {
    rng sample_rng = root.fork(static_cast<std::uint64_t>(i));
    const std::int64_t idx = candidates[static_cast<std::size_t>(i)];
    random_uniform_config c;
    c.eps = eps;
    const tensor x = run_random_uniform(ds.test_image(idx), c, sample_rng);
    if (predict_one(m, x) != ds.test_label(idx)) successes.fetch_add(1, std::memory_order_relaxed);
  });

  robust_eval out;
  out.samples = static_cast<std::int64_t>(candidates.size());
  out.attack_successes = successes.load();
  out.robust_accuracy =
      1.0f - static_cast<float>(out.attack_successes) / static_cast<float>(out.samples);
  out.mean_queries = 1.0;
  return out;
}

saga_eval evaluate_saga(const models::model& vit, const models::model& cnn,
                        const data::dataset& ds, bool shield_vit, bool shield_cnn,
                        const suite_params& params, std::int64_t max_samples, std::uint64_t seed) {
  // Candidate pool: samples both members classify correctly (per-model rows
  // of Table IV then start from 100% robust accuracy).
  const tensor vit_preds = predict(vit, ds.test_images());
  const tensor cnn_preds = predict(cnn, ds.test_images());
  std::vector<std::int64_t> candidates;
  for (std::int64_t i = 0; i < ds.test_size() &&
                           static_cast<std::int64_t>(candidates.size()) < max_samples;
       ++i)
    if (static_cast<std::int64_t>(vit_preds[i]) == ds.test_label(i) &&
        static_cast<std::int64_t>(cnn_preds[i]) == ds.test_label(i))
      candidates.push_back(i);
  PELTA_CHECK_MSG(!candidates.empty(), "no sample classified correctly by both members");

  saga_config config;
  config.eps = params.eps;
  config.eps_step = params.saga_eps_step;
  config.steps = params.saga_steps;
  config.alpha_k = params.saga_alpha_k_sim;  // unit-scale terms (see saga.h)

  const rng root{seed};
  // Same commutative-sum atomic policy as above: no lock needed.
  std::atomic<std::int64_t> vit_ok{0}, cnn_ok{0}, ens_ok{0};

  parallel_for(static_cast<std::int64_t>(candidates.size()), [&](std::int64_t i) {
    rng sample_rng = root.fork(static_cast<std::uint64_t>(i));
    auto vit_oracle = shield_vit ? make_shielded_oracle(vit, sample_rng.next_u64())
                                 : make_clear_oracle(vit);
    auto cnn_oracle = shield_cnn ? make_shielded_oracle(cnn, sample_rng.next_u64())
                                 : make_clear_oracle(cnn);
    const std::int64_t idx = candidates[static_cast<std::size_t>(i)];
    const std::int64_t label = ds.test_label(idx);
    const saga_result r =
        run_saga(*vit_oracle, *cnn_oracle, ds.test_image(idx), label, config);

    const bool vit_correct = !r.vit_fooled;
    const bool cnn_correct = !r.cnn_fooled;
    if (vit_correct) vit_ok.fetch_add(1, std::memory_order_relaxed);
    if (cnn_correct) cnn_ok.fetch_add(1, std::memory_order_relaxed);
    // Random-selection policy: one member chosen uniformly at test time.
    const bool pick_vit = sample_rng.bernoulli(0.5);
    if ((pick_vit && vit_correct) || (!pick_vit && cnn_correct))
      ens_ok.fetch_add(1, std::memory_order_relaxed);
  });

  saga_eval out;
  out.samples = static_cast<std::int64_t>(candidates.size());
  const float n = static_cast<float>(out.samples);
  out.vit_robust_accuracy = static_cast<float>(vit_ok.load()) / n;
  out.cnn_robust_accuracy = static_cast<float>(cnn_ok.load()) / n;
  out.ensemble_robust_accuracy = static_cast<float>(ens_ok.load()) / n;
  return out;
}

}  // namespace pelta::attacks
