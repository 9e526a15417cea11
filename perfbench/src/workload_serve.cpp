// serve_vit_fp32 and serve_mlp_int8_cluster: closed-loop run() calls against
// serve::server (ViT, pipelined executor) and a 2-replica serve::cluster
// (int8 MLP), checked request by request against batch-1 forwards.
#include <algorithm>
#include <cstring>
#include <exception>
#include <functional>

#include "inputs.h"
#include "models/compiler.h"
#include "models/mlp.h"
#include "models/zoo.h"
#include "probe.h"
#include "serve/batcher.h"
#include "serve/cluster.h"
#include "serve/exec.h"
#include "serve/server.h"
#include "stats.h"
#include "tensor/parallel.h"
#include "workloads.h"

namespace perfbench {

using namespace pelta;

namespace {

using reference = std::vector<std::vector<tensor>>;

constexpr serve::batch_policy k_policy{32, 2e6};
/// Untraced calls per run at least, so the call p90 rests on at least ten
/// calls beyond it.
constexpr std::int64_t k_min_calls = 100;

tensor as_batch(const tensor& image) {
  shape_t s{1};
  for (const std::int64_t d : image.shape()) s.push_back(d);
  return image.reshape(s);
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Batch-1 forward logits of every pooled request: the row each served
/// result must equal bitwise.
reference batch1_logits(const models::model& m, const request_pool& pool) {
  reference ref(pool.size());
  for (std::size_t c = 0; c < pool.size(); ++c) {
    ref[c].resize(pool[c].size());
    parallel_for(static_cast<std::int64_t>(pool[c].size()), [&](std::int64_t i) {
      const models::forward_pass fp =
          m.forward(as_batch(pool[c][static_cast<std::size_t>(i)].image), ad::norm_mode::eval);
      ref[c][static_cast<std::size_t>(i)] = fp.graph.value(fp.logits).flatten();
    });
  }
  return ref;
}

/// Requests of one call whose result is missing, duplicated, out of order
/// or not bitwise the reference row.
std::int64_t bad_results(const std::vector<serve::classify_result>& results,
                         const std::vector<serve::classify_request>& requests,
                         const std::vector<tensor>& ref) {
  std::int64_t bad = std::abs(static_cast<std::int64_t>(results.size()) -
                              static_cast<std::int64_t>(requests.size()));
  for (std::size_t i = 0; i < std::min(results.size(), requests.size()); ++i) {
    const serve::classify_result& r = results[i];
    if (r.request_id != requests[i].id || !same_bits(r.logits.data(), ref[i].data())) ++bad;
  }
  return bad;
}

struct batch_trace {
  double run_batch_ns = 0.0;
  std::int64_t size = 0;
  std::int64_t hotcalls = 0;
  double enclave_ns = 0.0;  ///< the served session's modeled charge
  double stage_us = 0.0;    ///< gather + bracket + run_batch + scatter
  std::vector<std::size_t> members;
  tensor gathered;
};

/// One planned batch through the public stage calls, each in a span. The
/// simulated-clock accounting is the server's and the cluster's, so the
/// scattered rows equal what run() returns.
batch_trace drive_batch(tracer& t, std::int64_t call,
                        const std::vector<serve::classify_request>& requests,
                        const serve::planned_batch& batch, std::size_t index,
                        serve::shielded_backend& backend, serve::enclave_session& session,
                        const serve::server_config& cfg, double& busy_until_ns,
                        std::vector<serve::classify_result>& results) {
  batch_trace out;
  out.size = static_cast<std::int64_t>(batch.members.size());
  out.members = batch.members;
  std::vector<std::int64_t> ids;
  for (const std::size_t m : batch.members) ids.push_back(requests[m].id);
  const span whole{t, "serve.batch", call};
  {
    const span s{t, "serve.exec.gather_batch", call};
    out.gathered = serve::exec::gather_batch(requests, batch.members, cfg);
  }
  {
    const span s{t, "serve.session.begin_batch", call};
    session.begin_batch();
  }
  serve::shielded_backend::batch_stats stats;
  tensor logits;
  {
    const std::int64_t t0 = steady_ns();
    const span s{t, "serve.backend.run_batch", call};
    try {
      logits = backend.run_batch(out.gathered, ids, session.port(), &stats);
    } catch (...) {
      session.end_batch();
      throw;
    }
    out.run_batch_ns = static_cast<double>(steady_ns() - t0);
  }
  serve::enclave_session::batch_charge charge;
  {
    const span s{t, "serve.session.end_batch", call};
    charge = session.end_batch();
  }
  out.hotcalls = charge.hotcalls;
  out.enclave_ns = charge.enclave_ns;
  const double exec_start_ns = std::max(batch.close_ns, busy_until_ns);
  const double compute_ns =
      cfg.batch_setup_ns + cfg.compute_ns_per_sample * static_cast<double>(out.size);
  const double finish_ns = exec_start_ns + charge.enclave_ns + compute_ns;
  busy_until_ns = finish_ns;
  {
    const span s{t, "serve.exec.scatter_batch", call};
    serve::exec::scatter_batch(results, requests, batch, index, logits, stats, charge,
                               exec_start_ns, compute_ns, finish_ns);
  }
  out.stage_us = whole.elapsed_us();
  return out;
}

/// What one workload plugs into the shared serve protocol.
struct serve_case {
  const char* name;
  const char* plan_span;
  gemm_shape gemm;
  gemm_shape qgemm;
};

/// Per-call traced numbers.
struct traced_call {
  std::vector<serve::classify_result> results;
  std::vector<batch_trace> batches;
  std::vector<double> replica_busy_us;  ///< per replica with work (cluster only)
};

struct serve_state {
  virtual ~serve_state() = default;
  virtual std::vector<serve::classify_result> run(
      const std::vector<serve::classify_request>& requests) = 0;
  virtual traced_call run_traced(tracer& t, std::int64_t call,
                                 const std::vector<serve::classify_request>& requests) = 0;
  /// The model the backend serves (for references and probes).
  virtual const models::model& served_model() const = 0;
  virtual serve::shielded_backend& served_backend() = 0;
  /// The fp32 model an int8 backend was compiled from (null for fp32).
  virtual const models::model* fp32_source() const { return nullptr; }
  request_pool pool;
};

/// Runs one traced call's batches again through forward + shield (the two
/// halves of model_backend::run_batch) and checks the probe's logits equal
/// the served rows bitwise.
void probe_batches(layer_probe& probe, const models::model& m, const traced_call& tc,
                   std::int64_t call, result& r) {
  for (const batch_trace& b : tc.batches) {
    const tensor logits = probe.observe(m, b.gathered, call);
    const auto classes = static_cast<std::size_t>(logits.size(1));
    for (std::size_t row = 0; row < b.members.size(); ++row)
      r.check(same_bits(logits.data().subspan(row * classes, classes),
                        tc.results[b.members[row]].logits.data()),
              "probe forward differs from the served run_batch");
  }
}

/// The end-to-end loop, then (traced) the layer re-drive and probes.
result serve_protocol(const run_options& opts, const serve_case& c,
                      const std::function<std::unique_ptr<serve_state>()>& make) {
  result r;
  std::vector<double> setup_times;
  const std::unique_ptr<serve_state> st =
      repeated_setup<serve_state>(opts, make, setup_times);
  const reference ref = batch1_logits(st->served_model(), st->pool);

  const auto check = [&](std::size_t p, const std::vector<serve::classify_result>& results) {
    const std::int64_t bad = bad_results(results, st->pool[p], ref[p]);
    r.attempted += static_cast<std::int64_t>(st->pool[p].size());
    r.failed += bad;
    r.check(bad == 0, std::string{c.name} + ": served logits differ from batch-1 forwards, or "
                                            "a request was lost or duplicated");
  };

  // The last untraced results of each pooled call, which the traced
  // re-drive of that call must reproduce bit for bit.
  std::vector<std::vector<serve::classify_result>> untraced(st->pool.size());
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::vector<double> call_s =
      timed_calls(untraced_s, k_min_calls, [&](std::int64_t i) {
        const std::size_t p = static_cast<std::size_t>(i) % st->pool.size();
        const std::int64_t t0 = steady_ns();
        std::vector<serve::classify_result> results = st->run(st->pool[p]);
        const double elapsed = seconds_since(t0);
        if (i == 0 && opts.inject_fault == "logits") results.front().logits[0] += 1.0f;
        check(p, results);
        if (opts.trace) untraced[p] = std::move(results);
        return elapsed;
      });
  const double rps = static_cast<double>(r.attempted) / sum(call_s);
  r.named.push_back({"serve.rps", rps, "1/s"});
  r.named.push_back({"serve.call_p50_ms", median(call_s) * 1e3, "ms"});
  r.named.push_back({"serve.call_p90_ms", percentile(call_s, 0.9) * 1e3, "ms"});
  r.named.push_back({"serve.calls", static_cast<double>(call_s.size()), "count"});
  r.named.push_back({"serve.failed_share",
                     static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio"});
  if (!opts.trace) {
    add_end_to_end(r, median(setup_times), rps, call_s);
    return r;
  }

  // Traced calls; each one's batches go through the layer probe right
  // after it (outside its timing), then only the numbers are kept.
  tracer t;
  layer_probe probe{t, st->fp32_source() != nullptr ? "models.int8_forward" : "models.forward"};
  std::vector<traced_call> traced;
  const std::vector<double> traced_s =
      timed_calls(opts.seconds / 2, 3, [&](std::int64_t i) {
        const std::size_t p = static_cast<std::size_t>(i) % st->pool.size();
        const std::int64_t t0 = steady_ns();
        traced_call tc = st->run_traced(t, i, st->pool[p]);
        const double elapsed = seconds_since(t0);
        check(p, tc.results);
        for (std::size_t q = 0; q < untraced[p].size(); ++q)
          r.check(same_bits(tc.results[q].logits.data(), untraced[p][q].logits.data()),
                  std::string{c.name} + ": traced re-drive differs from the untraced run()");
        probe_batches(probe, st->served_model(), tc, i, r);
        if (const models::model* fp32 = st->fp32_source())
          for (const batch_trace& b : tc.batches) {
            const span s{t, "models.fp32_forward", i};
            fp32->forward(b.gathered, ad::norm_mode::eval);
          }
        tc.results.clear();
        for (batch_trace& b : tc.batches) b.gathered = tensor{};
        traced.push_back(std::move(tc));
        return elapsed;
      });

  // Summed stage time of each traced call: its plan plus every batch's
  // stages, as if nothing overlapped.
  std::vector<double> stage_us = t.durations_us(c.plan_span);
  std::vector<double> imbalance;
  std::vector<double> sizes;
  std::vector<double> run_ns;
  std::vector<double> hotcalls;
  double enclave_ns = 0.0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const traced_call& tc = traced[i];
    if (!tc.replica_busy_us.empty())
      imbalance.push_back(
          *std::max_element(tc.replica_busy_us.begin(), tc.replica_busy_us.end()) /
          mean(tc.replica_busy_us));
    for (const batch_trace& b : tc.batches) {
      stage_us[i] += b.stage_us;
      sizes.push_back(static_cast<double>(b.size));
      run_ns.push_back(b.run_batch_ns);
      hotcalls.push_back(static_cast<double>(b.hotcalls));
      enclave_ns += b.enclave_ns;
    }
  }
  const double untraced_p50 = median(call_s);
  r.named.push_back({"serve.batcher.plan_us_per_call", median(t.durations_us(c.plan_span)), "us"});
  const double traced_requests = sum(sizes);
  r.named.push_back({"serve.batcher.mean_batch", traced_requests / static_cast<double>(sizes.size()),
                     "requests"});
  r.named.push_back({"serve.exec.gather_us_per_batch",
                     median(t.durations_us("serve.exec.gather_batch")), "us"});
  r.named.push_back({"serve.exec.scatter_us_per_batch",
                     median(t.durations_us("serve.exec.scatter_batch")), "us"});
  r.named.push_back({"serve.backend.run_batch_us", median(t.durations_us("serve.backend.run_batch")),
                     "us"});
  r.named.push_back({"serve.session.hotcalls_per_batch", mean(hotcalls), "count"});
  r.named.push_back({"serve.exec.overlap_share", 1.0 - untraced_p50 * 1e6 / median(stage_us),
                     "ratio"});
  // The cost fit takes the traced batches plus a sweep over batch sizes, so
  // the line has a slope even where every planned batch fills up.
  {
    tee::enclave enclave;
    serve::enclave_session session{enclave};
    const std::vector<serve::classify_request>& requests = st->pool.front();
    for (const std::int64_t size : {1, 2, 4, 8, 16, 24, 32})
      for (int rep = 0; rep < 3; ++rep) {
        std::vector<std::size_t> members(static_cast<std::size_t>(size));
        std::vector<std::int64_t> ids;
        for (std::size_t m = 0; m < members.size(); ++m) {
          members[m] = m;
          ids.push_back(requests[m].id);
        }
        const tensor batch =
            serve::exec::gather_batch(requests, members, serve::server_config{k_policy});
        serve::shielded_backend::batch_stats stats;
        session.begin_batch();
        const std::int64_t t0 = steady_ns();
        {
          const span s{t, "serve.cost.run_batch_sweep", size};
          st->served_backend().run_batch(batch, ids, session.port(), &stats);
        }
        run_ns.push_back(static_cast<double>(steady_ns() - t0));
        session.end_batch();
        sizes.push_back(static_cast<double>(size));
      }
  }
  const line_fit fit = fit_line(sizes, run_ns);
  const serve::server_config assumed;
  r.named.push_back({"serve.cost.setup_ns_fit", fit.intercept, "ns"});
  r.named.push_back({"serve.cost.per_sample_ns_fit", fit.slope, "ns"});
  r.named.push_back({"serve.cost.assumed_setup_ns", assumed.batch_setup_ns, "ns"});
  r.named.push_back({"serve.cost.assumed_per_sample_ns", assumed.compute_ns_per_sample, "ns"});
  r.named.push_back({"serve.cost.fit_points", static_cast<double>(fit.points), "count"});

  layer_numbers n;
  probe.summarize(n);
  if (st->fp32_source() != nullptr) {
    const double fp32_us = median(t.durations_us("models.fp32_forward"));
    r.named.push_back({"models.int8_forward_us_per_batch", n.forward_us_per_batch, "us"});
    r.named.push_back({"models.fp32_forward_us_per_batch", fp32_us, "us"});
    r.named.push_back({"models.int8_vs_fp32_ratio", n.forward_us_per_batch / fp32_us, "ratio"});
  }
  n.gemm_gflops = measure_gemm_gflops(t, c.gemm, 0.2, r);
  n.qgemm_gops = measure_qgemm_gops(t, c.qgemm, 0.2, r);
  // The served sessions' own charge (the probe's repeats the same stores).
  n.tee_modeled_ns_per_request = enclave_ns / traced_requests;
  if (!imbalance.empty())
    r.named.push_back({"serve.cluster.replica_imbalance", median(imbalance), "ratio"});
  finish_traced(r, t, n, call_s, traced_s, opts.trace_path);
  return r;
}

/// Arrival stamps and ids of one call, as run() hands them to the planner.
std::vector<double> stamps_of(const std::vector<serve::classify_request>& requests) {
  std::vector<double> s;
  for (const serve::classify_request& q : requests) s.push_back(q.submit_ns);
  return s;
}

std::vector<std::int64_t> ids_of(const std::vector<serve::classify_request>& requests) {
  std::vector<std::int64_t> s;
  for (const serve::classify_request& q : requests) s.push_back(q.id);
  return s;
}

// ---- serve_vit_fp32 ---------------------------------------------------------

struct vit_state final : serve_state {
  explicit vit_state(std::uint64_t seed)
      : ds{serve_vit_data(seed)},
        model{[seed] {
          models::task_spec task;
          task.seed = derive_seed(seed, model_stream);
          return models::make_vit_b16_sim(task);
        }()},
        backend{*model},
        srv{backend, enclave, serve::server_config{k_policy}} {
    pool = make_request_pool(ds, serve_vit_pool, seed);
    srv.run(pool.front());  // warm-up: pool threads, allocator, caches
  }

  std::vector<serve::classify_result> run(
      const std::vector<serve::classify_request>& requests) override {
    return srv.run(requests).results;
  }

  traced_call run_traced(tracer& t, std::int64_t call,
                         const std::vector<serve::classify_request>& requests) override {
    traced_call out;
    const span whole{t, "serve.call", call};
    serve::batch_plan plan;
    {
      const span s{t, "serve.batcher.plan_batches", call};
      plan = serve::plan_batches(stamps_of(requests), ids_of(requests), k_policy);
    }
    out.results = serve::exec::make_report_header(requests).results;
    // A session of its own for the re-drive (the server's is private),
    // opened per call so its polling worker exists only while traced.
    tee::enclave traced_enclave;
    serve::enclave_session traced_session{traced_enclave};
    double busy_until_ns = 0.0;
    for (std::size_t b = 0; b < plan.batches.size(); ++b)
      out.batches.push_back(drive_batch(t, call, requests, plan.batches[b], b, backend,
                                        traced_session, srv.config(), busy_until_ns,
                                        out.results));
    return out;
  }

  const models::model& served_model() const override { return *model; }
  serve::shielded_backend& served_backend() override { return backend; }

  data::dataset ds;
  std::unique_ptr<models::vit_model> model;
  serve::model_backend backend;
  tee::enclave enclave;
  serve::server srv;
};

// ---- serve_mlp_int8_cluster ------------------------------------------------

struct mlp_state final : serve_state {
  explicit mlp_state(std::uint64_t seed)
      : ds{serve_mlp_data(seed)},
        model{[seed] {
          models::mlp_config c;
          c.name = "mlp-3072";
          c.image_size = 32;
          c.channels = 3;
          c.hidden = {256, 128};
          c.classes = 10;
          c.seed = derive_seed(seed, model_stream);
          return std::make_unique<models::mlp_model>(c);
        }()},
        backend{*model, ds.test_images()},
        cfg{[] {
          serve::cluster_config c;
          c.replicas = 2;
          c.policy = serve::router_policy::round_robin;
          c.server.policy = k_policy;
          return c;
        }()},
        fleet{backend, cfg} {
    pool = make_request_pool(ds, serve_mlp_pool, seed);
    fleet.run(pool.front());  // warm-up
  }

  std::vector<serve::classify_result> run(
      const std::vector<serve::classify_request>& requests) override {
    return fleet.run(requests).results;
  }

  traced_call run_traced(tracer& t, std::int64_t call,
                         const std::vector<serve::classify_request>& requests) override {
    traced_call out;
    const span whole{t, "serve.call", call};
    serve::cluster_plan plan;
    {
      const span s{t, "serve.cluster.plan_cluster", call};
      plan = serve::plan_cluster(cfg, stamps_of(requests), ids_of(requests));
    }
    std::vector<std::vector<std::size_t>> slot_batches(static_cast<std::size_t>(plan.slots));
    for (std::size_t b = 0; b < plan.batches.size(); ++b)
      if (!plan.batches[b].aborted)
        slot_batches[static_cast<std::size_t>(plan.batches[b].replica)].push_back(b);

    out.results.resize(requests.size());
    std::vector<batch_trace> batches(plan.batches.size());
    std::vector<double> busy_us(slot_batches.size(), -1.0);
    std::vector<std::exception_ptr> errors(slot_batches.size());
    std::vector<task_future> tasks(slot_batches.size());
    const std::int64_t parent = whole.id();
    for (std::size_t s = 0; s < slot_batches.size(); ++s) {
      if (slot_batches[s].empty()) continue;
      tasks[s] = submit_task([&, s] {
        try {
          const span replica{t, "serve.cluster.replica", call, parent};
          tee::enclave enclave;
          serve::enclave_session session{enclave};
          double busy_until_ns = 0.0;
          for (const std::size_t b : slot_batches[s])
            batches[b] = drive_batch(t, call, requests, plan.batches[b].batch, b, backend,
                                     session, cfg.server, busy_until_ns, out.results);
          busy_us[s] = replica.elapsed_us();
        } catch (...) {
          errors[s] = std::current_exception();
        }
      });
    }
    for (task_future& f : tasks)
      if (f.valid()) f.get();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);

    for (const double b : busy_us)
      if (b >= 0.0) out.replica_busy_us.push_back(b);
    for (std::size_t b = 0; b < batches.size(); ++b)
      if (!plan.batches[b].aborted) out.batches.push_back(std::move(batches[b]));
    return out;
  }

  const models::model& served_model() const override { return backend.model(); }
  serve::shielded_backend& served_backend() override { return backend; }
  const models::model* fp32_source() const override { return model.get(); }

  data::dataset ds;
  std::unique_ptr<models::mlp_model> model;
  serve::quantized_backend backend;
  serve::cluster_config cfg;
  serve::cluster fleet;
};

}  // namespace

result run_serve_vit_fp32(const run_options& opts) {
  // Largest GEMM of ViT-B/16-sim: the MLP block's first linear layer over a
  // full batch, [32 requests x 17 tokens, dim 32] x [32, hidden 64].
  const gemm_shape vit_mlp{32 * 17, 32, 64};
  return serve_protocol(opts, {"serve_vit_fp32", "serve.batcher.plan_batches", vit_mlp, vit_mlp},
                        [&] { return std::make_unique<vit_state>(opts.seed); });
}

result run_serve_mlp_int8_cluster(const run_options& opts) {
  // fp32: the shielded 3072 -> 256 input layer over a full batch; int8: the
  // first quantized stage, 256 -> 128.
  return serve_protocol(opts,
                        {"serve_mlp_int8_cluster", "serve.cluster.plan_cluster",
                         {32, 3072, 256}, {32, 256, 128}},
                        [&] { return std::make_unique<mlp_state>(opts.seed); });
}

}  // namespace perfbench
