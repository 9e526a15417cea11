// Layer probes shared by every workload's traced run: one model forward and
// one shield application per observed batch, and the two GEMM kernels
// timed at the workload model's own shapes.
#pragma once

#include <cstdint>
#include <vector>

#include "models/model.h"
#include "serve/session.h"
#include "tee/enclave.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

struct gemm_shape {
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
};

/// fp32 `gemm_accumulate` at `shape`, called for at least `min_seconds`;
/// GFLOP/s at the median call (2*m*k*n flops per call). Fails `r` if the
/// kernel disagrees with a double-precision reference.
double measure_gemm_gflops(tracer& t, gemm_shape shape, double min_seconds, result& r);
/// int8 `qgemm` at `shape`; GOP/s at the median call. Fails `r` unless the
/// int32 output equals the exact integer reference.
double measure_qgemm_gops(tracer& t, gemm_shape shape, double min_seconds, result& r);

/// Forward + shield of observed batches inside spans ("models.forward" or
/// the given forward name, then "shield.shield_batch"), charged to a
/// private enclave so the served path's accounting is untouched. Each
/// observation opens its own session: a session's hotcall worker polls,
/// and must not compete with the timed calls between observations.
class layer_probe {
public:
  explicit layer_probe(tracer& t, const char* forward_name = "models.forward");

  /// Returns the forward's logits [B, classes].
  pelta::tensor observe(const pelta::models::model& m, const pelta::tensor& batch,
                        std::int64_t call);
  /// Observes `batch` repeatedly for at least `min_seconds` (and 5 times).
  void observe_for(const pelta::models::model& m, const pelta::tensor& batch,
                   double min_seconds);

  /// Fills every field but the kernel rates.
  void summarize(layer_numbers& out) const;

private:
  tracer* tracer_;
  const char* forward_name_;
  pelta::tee::enclave enclave_;
  std::vector<double> nodes_;
  std::vector<double> bytes_;
  double enclave_ns_ = 0.0;
  std::int64_t samples_ = 0;
};

}  // namespace perfbench
