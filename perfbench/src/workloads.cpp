#include "workloads.h"

#include <sys/resource.h>

#include <stdexcept>

#include "stats.h"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void add_end_to_end(result& r, double setup_s, double items_per_s,
                    const std::vector<double>& call_s) {
  r.end_to_end.push_back({"setup_s", setup_s, "s"});
  r.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  r.end_to_end.push_back({"throughput_per_s", items_per_s, "1/s"});
  r.end_to_end.push_back({"call_p50_ms", median(call_s) * 1e3, "ms"});
}

void finish_traced(result& r, const tracer& t, const layer_numbers& n,
                   const std::vector<double>& untraced_s, const std::vector<double>& traced_s,
                   const std::string& trace_path) {
  r.per_layer.push_back({"models.forward_us_per_batch", n.forward_us_per_batch, "us"});
  r.per_layer.push_back({"autodiff.nodes_per_forward", n.nodes_per_forward, "count"});
  r.per_layer.push_back({"tensor.gemm_gflops", n.gemm_gflops, "GFLOP/s"});
  r.per_layer.push_back({"tensor.qgemm_gops", n.qgemm_gops, "GOP/s"});
  r.per_layer.push_back({"shield.apply_us_per_batch", n.shield_apply_us_per_batch, "us"});
  r.per_layer.push_back({"shield.bytes_per_batch", n.shield_bytes_per_batch, "bytes"});
  r.per_layer.push_back({"tee.modeled_ns_per_request", n.tee_modeled_ns_per_request, "sim_ns"});
  r.named.push_back({"trace.untraced_call_p50_ms", median(untraced_s) * 1e3, "ms"});
  r.named.push_back({"trace.traced_call_p50_ms", median(traced_s) * 1e3, "ms"});
  r.named.push_back(
      {"trace.overhead_ms_per_call", (median(traced_s) - median(untraced_s)) * 1e3, "ms"});
  r.named.push_back({"trace.spans", static_cast<double>(t.spans().size()), "count"});
  r.named.push_back({"trace.spans_dropped", static_cast<double>(t.dropped()), "count"});
  if (!trace_path.empty()) t.write_chrome_json(trace_path);
}

std::vector<std::string> workload_names() {
  return {"serve_vit_fp32", "serve_mlp_int8_cluster", "fl_round", "attack_pgd_shielded"};
}

result run_workload(const run_options& opts) {
  if (opts.workload == "serve_vit_fp32") return run_serve_vit_fp32(opts);
  if (opts.workload == "serve_mlp_int8_cluster") return run_serve_mlp_int8_cluster(opts);
  if (opts.workload == "fl_round") return run_fl_round(opts);
  if (opts.workload == "attack_pgd_shielded") return run_attack_pgd_shielded(opts);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace perfbench
