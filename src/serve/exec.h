// The serving runtime's one per-batch executor.
//
// Every served batch, on the single server and on every cluster replica,
// runs the same chain: gather -> enclave_session bracket around ONE
// backend run_batch (one forward + one shield application) -> logits check
// -> busy-chain accounting -> batch_record -> scatter. exec::execute owns
// that chain; server::run and each cluster::run replica task only decide
// which batches it runs, over which session, at what depth.
//
// What the executor guarantees:
//   * the enclave stage is serialized through the one session, in list
//     order, and its bracket closes even when the backend throws;
//   * everything order-sensitive (the simulated busy chain, totals, batch
//     records) commits strictly in list order, so the result is
//     bit-identical at every depth and every effective thread count;
//   * a request gathered and scattered here goes through byte-for-byte the
//     same code whether a server or a replica serves it — half of the
//     cluster-vs-single-server logit bit-identity contract (the other half
//     is the kernels' batch-size invariance);
//   * on failure every in-flight stage is joined, then the first failure in
//     (batch, stage) order rethrows.
#pragma once

#include <vector>

#include "serve/batcher.h"
#include "serve/server.h"

namespace pelta::serve::exec {

/// Gather the batch's request images into one [B,C,H,W] model batch,
/// applying the software-defense chain in place when one is configured.
/// Pool-parallel and deterministic: each row writes only its own slice and
/// forks its chain stream from the request id, so a request's preprocessed
/// pixels depend on neither batch composition nor thread count.
tensor gather_batch(const std::vector<classify_request>& requests,
                    const std::vector<std::size_t>& members, const server_config& config);

/// Scatter one executed batch into the per-request result rows. Writes only
/// the rows `batch.members` owns into the pre-sized results vector, so
/// scatters of different batches (pipeline slots, cluster replicas) can run
/// concurrently.
void scatter_batch(std::vector<classify_result>& results,
                   const std::vector<classify_request>& requests, const planned_batch& batch,
                   std::size_t batch_index, const tensor& logits,
                   const shielded_backend::batch_stats& stats,
                   const enclave_session::batch_charge& charge, double exec_start_ns,
                   double compute_ns, double finish_ns);

/// Pre-sized report skeleton: one result slot per request, first_submit_ns
/// fixed to the earliest arrival.
serving_report make_report_header(const std::vector<classify_request>& requests);

/// One batch to execute: its index in the caller's plan (the result rows'
/// batch_index) and the planned batch.
struct batch_ref {
  std::size_t index = 0;
  const planned_batch* batch = nullptr;
};

/// What executing a batch list committed on the simulated clock.
struct executed {
  std::vector<batch_record> batches;  ///< in list order
  double enclave_ns = 0.0;
  std::int64_t hotcalls = 0;
  double last_finish_ns = 0.0;
};

/// Execute `batches` in order through `backend`, one bracket of `session`
/// per batch, scattering into the pre-sized `results` rows. One simulated
/// pipeline: a batch starts when it closed AND the previous one finished.
/// Up to `depth` (>= 1) gathers run ahead of the serialized enclave stage,
/// bounding the gathered-tensor memory; scatters trail behind it. At depth
/// 1 no gather runs ahead of the enclave stage.
executed execute(const std::vector<classify_request>& requests,
                 const std::vector<batch_ref>& batches, shielded_backend& backend,
                 enclave_session& session, const server_config& config, std::int64_t depth,
                 std::vector<classify_result>& results);

}  // namespace pelta::serve::exec
