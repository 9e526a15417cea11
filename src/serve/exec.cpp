#include "serve/exec.h"

#include <algorithm>
#include <exception>

#include "tensor/check.h"
#include "tensor/ops.h"
#include "tensor/parallel.h"

namespace pelta::serve::exec {

tensor gather_batch(const std::vector<classify_request>& requests,
                    const std::vector<std::size_t>& members, const server_config& config) {
  PELTA_CHECK(!members.empty());
  const tensor& first = requests[members.front()].image;
  PELTA_CHECK_MSG(first.ndim() == 3, "classify_request.image must be [C,H,W]");
  shape_t batched{static_cast<std::int64_t>(members.size())};
  for (std::int64_t d : first.shape()) batched.push_back(d);
  tensor out{batched};

  const bool chained = config.chain != nullptr && !config.chain->empty();
  const rng chain_root{config.chain_seed};
  const std::int64_t stride = first.numel();
  parallel_for(static_cast<std::int64_t>(members.size()), [&](std::int64_t r) {
    const classify_request& request = requests[members[static_cast<std::size_t>(r)]];
    PELTA_CHECK_MSG(request.image.shape() == first.shape(),
                    "request image shape mismatch inside one batch");
    auto row = out.data().begin() + r * stride;
    if (chained) {
      rng gen = chain_root.fork(static_cast<std::uint64_t>(request.id));
      const tensor pre = config.chain->apply(request.image, gen);
      std::copy(pre.data().begin(), pre.data().end(), row);
    } else {
      std::copy(request.image.data().begin(), request.image.data().end(), row);
    }
  });
  return out;
}

void scatter_batch(std::vector<classify_result>& results,
                   const std::vector<classify_request>& requests, const planned_batch& batch,
                   std::size_t batch_index, const tensor& logits,
                   const shielded_backend::batch_stats& stats,
                   const enclave_session::batch_charge& charge, double exec_start_ns,
                   double compute_ns, double finish_ns) {
  const std::int64_t classes = logits.size(1);
  const tensor preds = ops::argmax_lastdim(logits);
  for (std::size_t r = 0; r < batch.members.size(); ++r) {
    const std::size_t m = batch.members[r];
    classify_result& out = results[m];
    out.request_id = requests[m].id;
    out.predicted = static_cast<std::int64_t>(preds[static_cast<std::int64_t>(r)]);
    out.logits = tensor{shape_t{classes}};
    std::copy(logits.data().begin() + static_cast<std::int64_t>(r) * classes,
              logits.data().begin() + static_cast<std::int64_t>(r + 1) * classes,
              out.logits.data().begin());
    out.batch_index = static_cast<std::int64_t>(batch_index);
    out.batch_size = static_cast<std::int64_t>(batch.members.size());
    out.masked_transforms = stats.masked_transforms;
    out.shield_bytes_batch = stats.shield_bytes;
    out.submit_ns = requests[m].submit_ns;
    out.finish_ns = finish_ns;
    out.latency.queue_ns = batch.close_ns - requests[m].submit_ns;
    out.latency.batch_ns = exec_start_ns - batch.close_ns;
    out.latency.enclave_ns = charge.enclave_ns;
    out.latency.compute_ns = compute_ns;
  }
}

serving_report make_report_header(const std::vector<classify_request>& requests) {
  serving_report report;
  report.requests = static_cast<std::int64_t>(requests.size());
  report.results.resize(requests.size());
  if (requests.empty()) return report;
  report.first_submit_ns = requests.front().submit_ns;
  for (const classify_request& r : requests)
    report.first_submit_ns = std::min(report.first_submit_ns, r.submit_ns);
  return report;
}

executed execute(const std::vector<classify_request>& requests,
                 const std::vector<batch_ref>& batches, shielded_backend& backend,
                 enclave_session& session, const server_config& config, std::int64_t depth,
                 std::vector<classify_result>& results) {
  PELTA_CHECK_MSG(depth >= 1, "exec::execute needs a depth >= 1, got " << depth);
  executed out;
  const std::int64_t classes = backend.num_classes();
  double busy_until_ns = 0.0;
  const std::size_t total = batches.size();
  out.batches.reserve(total);

  // One slot per in-flight batch. `depth` gathers run ahead of the
  // serialized enclave stage; the +1 spare lets the slot's previous
  // occupant finish its scatter while the next gather is already needed.
  struct slot {
    std::size_t batch = 0;  ///< position in `batches`
    task_future gather;
    task_future scatter;
    tensor model_batch;
    tensor logits;
    std::vector<std::int64_t> ids;
    shielded_backend::batch_stats stats;
    enclave_session::batch_charge charge;
    double exec_start_ns = 0.0;
    double compute_ns = 0.0;
    double finish_ns = 0.0;
  };
  std::vector<slot> ring(std::min(static_cast<std::size_t>(depth) + 1, total));

  // A failed stage stops the pipeline; after every in-flight task has
  // retired, the error the strictly sequential chain would have hit first
  // — smallest batch, earliest stage — is the one rethrown.
  enum : int { gather_stage = 0, enclave_stage = 1, scatter_stage = 2 };
  struct failure {
    std::size_t batch;
    int stage;
    std::exception_ptr error;
  };
  std::vector<failure> failures;
  const auto note = [&failures](std::size_t batch, int stage) {
    failures.push_back({batch, stage, std::current_exception()});
  };

  const auto submit_gather = [&](std::size_t b) {
    slot& s = ring[b % ring.size()];
    s.batch = b;
    s.gather = submit_task([&requests, &batches, &config, &s] {
      s.model_batch = gather_batch(requests, batches[s.batch].batch->members, config);
    });
  };
  std::size_t next_gather = std::min(static_cast<std::size_t>(depth), total);
  for (std::size_t b = 0; b < next_gather; ++b) submit_gather(b);

  for (std::size_t b = 0; b < total && failures.empty(); ++b) {
    slot& s = ring[b % ring.size()];
    const planned_batch& batch = *batches[b].batch;
    const std::int64_t size = static_cast<std::int64_t>(batch.members.size());
    try {
      s.gather.get();
    } catch (...) {
      note(b, gather_stage);
      break;
    }

    s.ids.clear();
    s.ids.reserve(batch.members.size());
    for (std::size_t m : batch.members) s.ids.push_back(requests[m].id);

    // The serialized stage: the session bracket must close even when the
    // backend throws, or the next batch (or the next run) would wedge on a
    // dangling begin_batch.
    session.begin_batch();
    try {
      s.logits = backend.run_batch(s.model_batch, s.ids, session.port(), &s.stats);
    } catch (...) {
      session.end_batch();
      note(b, enclave_stage);
      break;
    }
    s.charge = session.end_batch();
    s.model_batch = tensor{};  // only gathers in flight hold model batches
    try {
      PELTA_CHECK_MSG(s.logits.ndim() == 2 && s.logits.size(0) == size &&
                          s.logits.size(1) == classes,
                      "backend returned logits " << to_string(s.logits.shape())
                                                 << " for batch of " << size);
    } catch (...) {
      note(b, enclave_stage);
      break;
    }

    // Commit strictly in batch order: the simulated single-pipeline clock,
    // the session accounting and the batch records never depend on how the
    // wall stages overlapped.
    s.exec_start_ns = std::max(batch.close_ns, busy_until_ns);
    s.compute_ns = config.modeled_compute_ns(size);
    s.finish_ns = s.exec_start_ns + s.charge.enclave_ns + s.compute_ns;
    busy_until_ns = s.finish_ns;
    out.last_finish_ns = s.finish_ns;
    out.enclave_ns += s.charge.enclave_ns;
    out.hotcalls += s.charge.hotcalls;

    batch_record rec;
    rec.request_ids = s.ids;
    rec.close_ns = batch.close_ns;
    rec.exec_start_ns = s.exec_start_ns;
    rec.enclave_ns = s.charge.enclave_ns;
    rec.compute_ns = s.compute_ns;
    rec.hotcalls = s.charge.hotcalls;
    out.batches.push_back(std::move(rec));

    s.scatter = submit_task([&results, &requests, &batches, &s] {
      const batch_ref& ref = batches[s.batch];
      scatter_batch(results, requests, *ref.batch, ref.index, s.logits, s.stats, s.charge,
                    s.exec_start_ns, s.compute_ns, s.finish_ns);
    });

    if (next_gather < total) {
      slot& n = ring[next_gather % ring.size()];
      // The slot's previous batch left the enclave long ago; only its
      // scatter may still own the slot's tensors. Wait it out, then reuse.
      if (n.scatter.valid()) {
        try {
          n.scatter.get();
        } catch (...) {
          note(n.batch, scatter_stage);
          break;
        }
      }
      submit_gather(next_gather++);
    }
  }

  // Join every task still in flight — they touch slot and result memory —
  // before the records (or an exception) leave this frame.
  for (slot& s : ring) {
    if (s.gather.valid()) {
      try {
        s.gather.get();
      } catch (...) {
        note(s.batch, gather_stage);
      }
    }
    if (s.scatter.valid()) {
      try {
        s.scatter.get();
      } catch (...) {
        note(s.batch, scatter_stage);
      }
    }
  }
  if (!failures.empty()) {
    const auto first = std::min_element(failures.begin(), failures.end(),
                                        [](const failure& a, const failure& b) {
                                          return a.batch != b.batch ? a.batch < b.batch
                                                                    : a.stage < b.stage;
                                        });
    std::rethrow_exception(first->error);
  }
  return out;
}

}  // namespace pelta::serve::exec
