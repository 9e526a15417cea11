// pelta_perfbench: one workload of the end-to-end benchmark per process.
//
//   pelta_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file.json>]
//                   [--inject-fault logits]
//
// Prints a `record` line (host fingerprint, the workload's named metrics,
// any failed checks), then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced. Exit code 0 when every
// correctness check passed, 1 when one failed, 2 on bad arguments, 3 when
// the workload threw.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "fingerprint.h"
#include "workloads.h"

namespace {

using perfbench::metric;

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pelta_perfbench: %s\nusage: pelta_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--inject-fault logits]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::run_options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--trace-out") {
      opts.trace_path = value;
    } else if (arg == "--inject-fault") {
      opts.inject_fault = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  const std::vector<std::string> names = perfbench::workload_names();
  if (!have_workload || std::find(names.begin(), names.end(), opts.workload) == names.end())
    return usage("--workload must name one of the four workloads");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::result r;
  try {
    r = perfbench::run_workload(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pelta_perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 3;
  }
  std::vector<metric>& reported = opts.trace ? r.per_layer : r.end_to_end;
  for (const std::vector<metric>* list : {&r.end_to_end, &r.per_layer, &r.named})
    for (const metric& m : *list)
      if (!std::isfinite(m.value)) r.fail("metric " + m.name + " is not finite");

  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    failures += (i > 0 ? ", " : "") + quote(r.failures[i]);
  failures += "]";
  std::printf("{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
              "\"host\": %s, \"failures\": %s, \"named\": %s}}\n",
              quote(opts.workload).c_str(), static_cast<unsigned long long>(opts.seed),
              number(opts.seconds).c_str(), opts.trace ? 1 : 0,
              perfbench::host_fingerprint_json().c_str(), failures.c_str(),
              metrics_json(r.named).c_str());
  for (const std::string& f : r.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), metrics_json(reported).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
