// attack_pgd_shielded: the compromised client's PGD loop against its local
// ViT copy through the PELTA-shielded oracle (attacks::evaluate_attack over
// 64 correctly classified test samples per call). The traced run wraps
// every oracle in a timing decorator; a clear-oracle call gives the
// robust accuracy the shield must beat.
#include "attacks/runner.h"
#include "inputs.h"
#include "models/trainer.h"
#include "models/zoo.h"
#include "probe.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using namespace pelta;

namespace {

constexpr std::int64_t k_samples = 64;

struct attack_state {
  explicit attack_state(std::uint64_t seed) : ds{attack_data(seed)} {
    models::task_spec task;
    task.seed = derive_seed(seed, model_stream);
    model = models::make_model("ViT-B/16", task);
    models::train_config tc;
    tc.epochs = 4;
    tc.batch_size = 32;
    tc.lr = 3e-3f;
    tc.seed = derive_seed(seed, training_stream);
    tc.shards = 2;
    clean_accuracy = models::train_model(*model, ds, tc).test_accuracy;
    // Warm-up: one small attack call.
    attacks::evaluate_attack(*model, ds, attacks::attack_kind::pgd, params,
                             attacks::shielded_oracle_factory(*model), 4, seed);
  }

  data::dataset ds;
  std::unique_ptr<models::model> model;
  attacks::suite_params params = attacks::table2_cifar_params();
  float clean_accuracy = 0.0f;
};

/// Times every query of the wrapped oracle; its own lifetime, which is one
/// attacked sample inside evaluate_attack, is the enclosing span.
class timed_oracle final : public attacks::gradient_oracle {
public:
  timed_oracle(std::unique_ptr<attacks::gradient_oracle> inner, tracer& t, const char* sample_span,
               const char* query_span, std::int64_t call, std::int64_t parent)
      : sample_{t, sample_span, call, parent},
        inner_{std::move(inner)},
        tracer_{&t},
        query_span_{query_span},
        call_{call} {}

  attacks::oracle_result query(const tensor& image, std::int64_t label) override {
    const span s{*tracer_, query_span_, call_};
    ++queries_;
    return inner_->query(image, label);
  }
  attacks::oracle_result query_logit_seed(const tensor& image, const tensor& seed) override {
    const span s{*tracer_, query_span_, call_};
    ++queries_;
    return inner_->query_logit_seed(image, seed);
  }
  tensor attention_saliency(const tensor& image) override {
    return inner_->attention_saliency(image);
  }
  void reset(rng& gen) override { inner_->reset(gen); }

private:
  span sample_;  // first member: opens before and closes after the others
  std::unique_ptr<attacks::gradient_oracle> inner_;
  tracer* tracer_;
  const char* query_span_;
  std::int64_t call_;
};

attacks::oracle_factory timed_factory(attacks::oracle_factory inner, tracer& t,
                                      const char* sample_span, const char* query_span,
                                      std::int64_t call, std::int64_t parent) {
  return [=, &t](std::uint64_t seed) -> std::unique_ptr<attacks::gradient_oracle> {
    return std::make_unique<timed_oracle>(inner(seed), t, sample_span, query_span, call, parent);
  };
}

}  // namespace

result run_attack_pgd_shielded(const run_options& opts) {
  result r;
  std::vector<double> setup_times;
  const std::unique_ptr<attack_state> st = repeated_setup<attack_state>(
      opts, [&] { return std::make_unique<attack_state>(opts.seed); },
      setup_times);
  const models::model& m = *st->model;
  const rng call_seeds{derive_seed(opts.seed, attack_stream)};
  const auto call_seed = [&](std::int64_t i) {
    return call_seeds.fork(static_cast<std::uint64_t>(i)).seed();
  };

  std::vector<attacks::robust_eval> evals;
  const auto attack = [&](std::int64_t i, const attacks::oracle_factory& factory) {
    const std::int64_t t0 = steady_ns();
    const attacks::robust_eval e = attacks::evaluate_attack(
        m, st->ds, attacks::attack_kind::pgd, st->params, factory, k_samples, call_seed(i));
    const double elapsed = seconds_since(t0);
    r.attempted += k_samples;
    r.failed += k_samples - e.samples;
    r.check(e.samples == k_samples, "attack_pgd_shielded: fewer correctly classified samples");
    evals.push_back(e);
    return elapsed;
  };

  const std::vector<double> call_s =
      timed_calls(opts.trace ? opts.seconds / 2 : opts.seconds, 3,
                  [&](std::int64_t i) { return attack(i, attacks::shielded_oracle_factory(m)); });

  tracer t;
  std::vector<double> traced_s;
  if (opts.trace) {
    traced_s = timed_calls(opts.seconds / 2, 2, [&](std::int64_t i) {
      const span call{t, "attacks.evaluate_attack", i};
      return attack(i, timed_factory(attacks::shielded_oracle_factory(m), t, "attacks.sample",
                                     "attacks.oracle.query", i, call.id()));
    });
  }
  // The clear-oracle baseline on call 0's samples and seeds.
  const attacks::robust_eval clear = [&] {
    const span call{t, "attacks.evaluate_attack_clear", 0};
    const attacks::oracle_factory factory =
        opts.trace ? timed_factory(attacks::clear_oracle_factory(m), t, "attacks.clear_sample",
                                   "attacks.oracle.clear_query", 0, call.id())
                   : attacks::clear_oracle_factory(m);
    return attacks::evaluate_attack(m, st->ds, attacks::attack_kind::pgd, st->params, factory,
                                    k_samples, call_seed(0));
  }();
  for (const attacks::robust_eval& e : evals)
    r.check(e.robust_accuracy > clear.robust_accuracy,
            "attack_pgd_shielded: shielded robust accuracy is not above the clear oracle's");

  const double samples_per_s =
      static_cast<double>(k_samples) * static_cast<double>(call_s.size()) / sum(call_s);
  r.named.push_back({"attack.samples_per_s", samples_per_s, "1/s"});
  r.named.push_back({"attack.call_p50_s", median(call_s), "s"});
  r.named.push_back({"attack.calls", static_cast<double>(call_s.size()), "count"});
  r.named.push_back({"attack.robust_accuracy", evals.front().robust_accuracy, "ratio"});
  r.named.push_back({"attack.clear_robust_accuracy", clear.robust_accuracy, "ratio"});
  r.named.push_back({"attack.queries_per_sample", evals.front().mean_queries, "count"});
  r.named.push_back({"attack.clean_accuracy", st->clean_accuracy, "ratio"});
  if (!opts.trace) {
    add_end_to_end(r, median(setup_times), samples_per_s, call_s);
    return r;
  }

  const double query_us = median(t.durations_us("attacks.oracle.query"));
  const double clear_us = median(t.durations_us("attacks.oracle.clear_query"));
  std::vector<double> queries;
  for (std::size_t i = evals.size() - traced_s.size(); i < evals.size(); ++i)
    queries.push_back(evals[i].mean_queries);
  r.named.push_back({"attacks.oracle.query_us", query_us, "us"});
  r.named.push_back({"attacks.oracle.clear_query_us", clear_us, "us"});
  r.named.push_back({"shield.query_overhead_ratio", query_us / clear_us, "ratio"});
  r.named.push_back({"attacks.step_self_us", median(t.self_us("attacks.sample")) / mean(queries), "us"});

  // Layer probes: the batch-1 forward + shield every oracle query runs, and
  // the kernels at the ViT's largest GEMM for one image ([17 tokens, dim 32]
  // x [32, hidden 64]).
  layer_numbers n;
  {
    layer_probe probe{t};
    const tensor image = st->ds.test_image(0);
    shape_t s{1};
    for (const std::int64_t d : image.shape()) s.push_back(d);
    const tensor batch = image.reshape(s);
    probe.observe_for(m, batch, 0.3);
    probe.summarize(n);
  }
  const gemm_shape vit_mlp{17, 32, 64};
  n.gemm_gflops = measure_gemm_gflops(t, vit_mlp, 0.2, r);
  n.qgemm_gops = measure_qgemm_gops(t, vit_mlp, 0.2, r);
  finish_traced(r, t, n, call_s, traced_s, opts.trace_path);
  return r;
}

}  // namespace perfbench
