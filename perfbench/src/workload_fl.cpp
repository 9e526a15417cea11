// fl_round: synchronous FedAvg rounds of 8 ResNet-56-sim clients. The
// traced run drives broadcast -> parallel {receive_global, local_update}
// -> aggregate in run_round's order on a twin federation and checks its
// global state stays byte-equal to run_round's after every round.
#include <algorithm>
#include <cmath>

#include "fl/federation.h"
#include "fl/state.h"
#include "inputs.h"
#include "models/zoo.h"
#include "probe.h"
#include "stats.h"
#include "tensor/parallel.h"
#include "workloads.h"

namespace perfbench {

using namespace pelta;

namespace {

constexpr std::int64_t k_warmup_rounds = 2;

fl::federation_config federation_config(std::uint64_t seed) {
  fl::federation_config c;
  c.clients = 8;
  c.compromised = 0;
  c.local.epochs = 1;
  c.local.batch_size = 16;
  c.participation = 1.0f;
  c.seed = derive_seed(seed, federation_stream);
  return c;
}

struct fl_state {
  explicit fl_state(std::uint64_t seed)
      : config{federation_config(seed)},
        ds{fl_data(seed)},
        fed{config,
            [seed] {
              models::task_spec task;
              task.seed = derive_seed(seed, model_stream);
              return models::make_model("ResNet-56", task);
            },
            ds} {
    fed.run_rounds(k_warmup_rounds);  // round 0 costs several steady rounds
  }

  fl::federation_config config;
  data::dataset ds;
  fl::federation fed;
};

bool all_finite(const models::model& m) {
  const nn::param_store& params = m.params();
  for (std::size_t i = 0; i < params.size(); ++i)
    for (const float v : params.at(i).value.data())
      if (!std::isfinite(v)) return false;
  return true;
}

struct round_trace {
  double bytes = 0.0;
  double client_imbalance = 1.0;  ///< max / mean local_update time
  double idle_share = 0.0;        ///< pool time the clients left unused
};

/// One round through the layers' public calls, in run_round's order.
round_trace traced_round(tracer& t, fl::federation& fed, const fl::federation_config& cfg,
                         std::int64_t round) {
  round_trace out;
  const span whole{t, "fl.round", round};
  byte_buffer global;
  {
    const span s{t, "fl.server.broadcast", round};
    global = fed.server().broadcast();
  }
  const std::vector<std::int64_t> ids = fed.round_participant_ids(fed.server().round());
  fl::local_train_config local = cfg.local;
  local.seed = cfg.seed + static_cast<std::uint64_t>(fed.server().round());

  const std::size_t n = ids.size();
  std::vector<fl::model_update> updates(n);
  std::vector<double> update_us(n);
  std::vector<double> client_us(n);
  {
    const span par{t, "fl.parallel_for", round};
    const std::int64_t parent = par.id();
    parallel_for(static_cast<std::int64_t>(n), 1, [&](std::int64_t i) {
      const auto k = static_cast<std::size_t>(i);
      fl::fl_client& client = fed.client(ids[k]);
      const span cs{t, "fl.client", round, parent};
      {
        const span s{t, "fl.client.receive_global", round};
        client.receive_global(global);
      }
      {
        const span s{t, "fl.client.local_update", round};
        updates[k] = client.local_update(local);
        update_us[k] = s.elapsed_us();
      }
      client_us[k] = cs.elapsed_us();
    });
    out.idle_share =
        1.0 - sum(client_us) / (static_cast<double>(parallel_thread_count()) * par.elapsed_us());
  }
  {
    const span s{t, "fl.server.aggregate", round};
    fed.server().aggregate(updates, cfg.aggregation);
  }
  out.bytes = static_cast<double>(global.size() * n);
  for (const fl::model_update& u : updates) out.bytes += static_cast<double>(u.parameters.size());
  out.client_imbalance = *std::max_element(update_us.begin(), update_us.end()) / mean(update_us);
  return out;
}

}  // namespace

result run_fl_round(const run_options& opts) {
  result r;
  std::vector<double> setup_times;
  const std::unique_ptr<fl_state> st = repeated_setup<fl_state>(
      opts, [&] { return std::make_unique<fl_state>(opts.seed); },
      setup_times);
  std::int64_t train_samples = 0;
  for (std::int64_t c = 0; c < st->fed.client_count(); ++c)
    train_samples += st->fed.client(c).shard_size();

  const auto untraced_round = [&] {
    const std::int64_t t0 = steady_ns();
    st->fed.run_round();
    const double elapsed = seconds_since(t0);
    r.attempted += st->fed.client_count();
    if (!all_finite(st->fed.server().global_model())) {
      r.failed += st->fed.client_count();
      r.fail("fl_round: the aggregated global model is not finite");
    }
    return elapsed;
  };

  std::vector<double> round_s;
  std::vector<double> traced_s;
  std::vector<round_trace> traces;
  tracer t;
  if (!opts.trace) {
    round_s = timed_calls(opts.seconds, 3, [&](std::int64_t) { return untraced_round(); });
  } else {
    // Alternate run_round on the set-up federation with a traced round on
    // an identically built twin; after each pair the two global states
    // must be byte-equal.
    fl_state twin{opts.seed};
    timed_calls(opts.seconds, 3, [&](std::int64_t i) {
      round_s.push_back(untraced_round());
      const std::int64_t t0 = steady_ns();
      traces.push_back(traced_round(t, twin.fed, twin.config, i));
      traced_s.push_back(seconds_since(t0));
      r.check(fl::snapshot_state(st->fed.server().global_model()) ==
                  fl::snapshot_state(twin.fed.server().global_model()),
              "fl_round: traced round's global state differs from run_round's");
      return round_s.back() + traced_s.back();
    });
  }

  const float accuracy = st->fed.global_test_accuracy();
  const double chance = 1.0 / static_cast<double>(st->ds.config().classes);
  r.check(accuracy > chance, "fl_round: global test accuracy is not above chance");
  const double samples_per_s =
      static_cast<double>(train_samples) * static_cast<double>(round_s.size()) / sum(round_s);
  r.named.push_back({"fl.round_p50_s", median(round_s), "s"});
  r.named.push_back({"fl.samples_per_s", samples_per_s, "1/s"});
  r.named.push_back({"fl.test_accuracy", accuracy, "ratio"});
  r.named.push_back({"fl.rounds", static_cast<double>(round_s.size()), "count"});
  if (!opts.trace) {
    add_end_to_end(r, median(setup_times), samples_per_s, round_s);
    return r;
  }

  std::vector<double> bytes;
  std::vector<double> imbalance;
  std::vector<double> idle;
  for (const round_trace& rt : traces) {
    bytes.push_back(rt.bytes);
    imbalance.push_back(rt.client_imbalance);
    idle.push_back(rt.idle_share);
  }
  {
    // fl/state serialization of one model, as every update and broadcast pays it.
    const std::int64_t start = steady_ns();
    while (seconds_since(start) < 0.1 || t.durations_us("fl.state.snapshot_state").size() < 5) {
      const span s{t, "fl.state.snapshot_state"};
      const byte_buffer b = fl::snapshot_state(st->fed.server().global_model());
      r.check(!b.empty(), "fl_round: empty state snapshot");
    }
  }
  r.named.push_back({"fl.server.broadcast_ms", median(t.durations_us("fl.server.broadcast")) / 1e3, "ms"});
  r.named.push_back({"fl.client.receive_ms", median(t.durations_us("fl.client.receive_global")) / 1e3, "ms"});
  r.named.push_back({"fl.client.local_update_ms", median(t.durations_us("fl.client.local_update")) / 1e3, "ms"});
  r.named.push_back({"fl.state.snapshot_ms", median(t.durations_us("fl.state.snapshot_state")) / 1e3, "ms"});
  r.named.push_back({"fl.server.aggregate_ms", median(t.durations_us("fl.server.aggregate")) / 1e3, "ms"});
  r.named.push_back({"fl.round_bytes", median(bytes), "bytes"});
  r.named.push_back({"fl.client.imbalance", median(imbalance), "ratio"});
  r.named.push_back({"fl.parallel.idle_share", median(idle), "ratio"});

  // Layer probes on the global model: an eval forward + shield of one
  // local batch (16 test images), and the kernels at the largest conv GEMM
  // (stage 1: 8 output channels, 8x3x3 patch rows, 16x16 pixels).
  layer_numbers n;
  {
    layer_probe probe{t};
    shape_t s = st->ds.test_images().shape();
    s[0] = 16;
    tensor batch{s};
    std::copy(st->ds.test_images().data().begin(),
              st->ds.test_images().data().begin() + batch.numel(), batch.data().begin());
    probe.observe_for(st->fed.server().global_model(), batch, 0.3);
    probe.summarize(n);
  }
  const gemm_shape conv{8, 8 * 9, 16 * 16};
  n.gemm_gflops = measure_gemm_gflops(t, conv, 0.2, r);
  n.qgemm_gops = measure_qgemm_gops(t, conv, 0.2, r);
  finish_traced(r, t, n, round_s, traced_s, opts.trace_path);
  return r;
}

}  // namespace perfbench
