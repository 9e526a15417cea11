// The benchmark's four workloads and the result record they fill.
//
// Every workload follows the same protocol:
//   1. set-up, repeated (the median is `setup_s`), keeping the last state;
//   2. reference outputs for the correctness checks (untimed);
//   3. untraced calls for the run's seconds — the end-to-end metrics;
//   4. with tracing on, the run's seconds are split between untraced calls
//      and a re-drive of the same calls through each layer's public
//      functions inside spans — the per-layer metrics;
//   5. correctness checks over everything that ran.
// See NOTES.md for why each workload exists and which metric each layer
// number should move.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< Chrome trace output of a traced run ("" = none)
  /// Test hook: corrupt one served output before the checks run, so the
  /// run must fail ("logits" is the only fault).
  std::string inject_fault;
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct result {
  bool correct = true;
  std::vector<std::string> failures;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// The names BENCHMARK.json lists: end-to-end (untraced run) and per-layer
  /// (traced run). Every workload reports every one of them.
  std::vector<metric> end_to_end;
  std::vector<metric> per_layer;
  /// The workload's own named metrics (serve.rps, fl.round_p50_s,
  /// attacks.oracle.query_us, ...) for the record line.
  std::vector<metric> named;

  void fail(const std::string& why) {
    correct = false;
    if (std::find(failures.begin(), failures.end(), why) == failures.end())
      failures.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
};

result run_serve_vit_fp32(const run_options& opts);
result run_serve_mlp_int8_cluster(const run_options& opts);
result run_fl_round(const run_options& opts);
result run_attack_pgd_shielded(const run_options& opts);

std::vector<std::string> workload_names();
/// Dispatch by name; throws std::invalid_argument for an unknown workload.
result run_workload(const run_options& opts);

// ---- shared helpers ---------------------------------------------------------

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(steady_ns() - start_ns) / 1e9;
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// Set-ups per untraced run; `setup_s` is their median. A traced run does
/// not report `setup_s` and sets up once.
constexpr int k_setup_reps = 5;

/// Runs `make` k_setup_reps times (once when tracing), keeping the last
/// state; appends each set-up's wall time (s) to `times`. Earlier states are
/// destroyed before the next set-up starts, so each one pays its allocations
/// again.
template <class State, class Make>
std::unique_ptr<State> repeated_setup(const run_options& opts, Make make,
                                      std::vector<double>& times) {
  std::unique_ptr<State> state;
  for (int r = 0; r < (opts.trace ? 1 : k_setup_reps); ++r) {
    state.reset();
    const std::int64_t t0 = steady_ns();
    state = make();
    times.push_back(seconds_since(t0));
  }
  return state;
}

/// Calls `call(i)` for i = 0, 1, ... until `seconds` have passed and at
/// least `min_calls` calls ran; returns each call's wall time (s). `call`
/// returns the seconds to count for that call, so it can leave its own
/// correctness checks out of the timed part.
template <class Call>
std::vector<double> timed_calls(double seconds, std::int64_t min_calls, Call call) {
  std::vector<double> times;
  const std::int64_t start = steady_ns();
  for (std::int64_t i = 0;
       seconds_since(start) < seconds || static_cast<std::int64_t>(times.size()) < min_calls;
       ++i)
    times.push_back(call(i));
  return times;
}

/// The end-to-end metrics every workload reports (BENCHMARK.json order).
void add_end_to_end(result& r, double setup_s, double items_per_s,
                    const std::vector<double>& call_s);

/// The per-layer metrics every workload's traced run reports.
struct layer_numbers {
  double forward_us_per_batch = 0.0;
  double nodes_per_forward = 0.0;
  double gemm_gflops = 0.0;
  double qgemm_gops = 0.0;
  double shield_apply_us_per_batch = 0.0;
  double shield_bytes_per_batch = 0.0;
  double tee_modeled_ns_per_request = 0.0;
};

/// Closes a traced run: the per-layer metrics, the tracing overhead (traced
/// minus untraced call p50) and span counts in the record, and the Chrome
/// trace file when `trace_path` is set.
void finish_traced(result& r, const tracer& t, const layer_numbers& n,
                   const std::vector<double>& untraced_s, const std::vector<double>& traced_s,
                   const std::string& trace_path);

}  // namespace perfbench
