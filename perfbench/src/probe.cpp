#include "probe.h"

#include <cmath>

#include "shield/masked_view.h"
#include "stats.h"
#include "tensor/kernels.h"
#include "tensor/rng.h"

namespace perfbench {

using namespace pelta;

namespace {

/// Per-call wall times (s) of `call`, repeated for at least `min_seconds`
/// and at least 5 times, each inside a span called `name`.
template <class Call>
std::vector<double> repeat_timed(tracer& t, const char* name, double min_seconds, Call call) {
  std::vector<double> times;
  const std::int64_t start = steady_ns();
  while (seconds_since(start) < min_seconds || times.size() < 5) {
    const span s{t, name};
    const std::int64_t t0 = steady_ns();
    call();
    times.push_back(seconds_since(t0));
  }
  return times;
}

}  // namespace

double measure_gemm_gflops(tracer& t, gemm_shape s, double min_seconds, result& r) {
  rng gen{0x6e33};
  std::vector<float> a(static_cast<std::size_t>(s.m * s.k));
  std::vector<float> b(static_cast<std::size_t>(s.k * s.n));
  for (float& v : a) v = gen.uniform(-1.0f, 1.0f);
  for (float& v : b) v = gen.uniform(-1.0f, 1.0f);
  std::vector<float> out(static_cast<std::size_t>(s.m * s.n), 0.0f);
  ops::detail::finite_cache b_finite;

  ops::detail::gemm_accumulate(a.data(), b.data(), out.data(), s.m, s.k, s.n, b_finite);
  for (std::int64_t i = 0; i < s.m; ++i)
    for (std::int64_t j = 0; j < s.n; ++j) {
      double want = 0.0;
      for (std::int64_t k = 0; k < s.k; ++k)
        want += static_cast<double>(a[static_cast<std::size_t>(i * s.k + k)]) *
                static_cast<double>(b[static_cast<std::size_t>(k * s.n + j)]);
      const double got = out[static_cast<std::size_t>(i * s.n + j)];
      if (std::abs(got - want) > 1e-3 * (1.0 + std::abs(want))) {
        r.fail("gemm_accumulate disagrees with the double reference");
        return 0.0;
      }
    }

  const std::vector<double> times = repeat_timed(t, "tensor.gemm_accumulate", min_seconds, [&] {
    ops::detail::gemm_accumulate(a.data(), b.data(), out.data(), s.m, s.k, s.n, b_finite);
  });
  return 2.0 * static_cast<double>(s.m * s.k * s.n) / median(times) / 1e9;
}

double measure_qgemm_gops(tracer& t, gemm_shape s, double min_seconds, result& r) {
  rng gen{0x9e77};
  const std::int64_t lda = ops::detail::qgemm_row_stride(s.k);
  std::vector<std::uint8_t> a(static_cast<std::size_t>(s.m * lda), 128);
  std::vector<std::int8_t> b(static_cast<std::size_t>(s.k * s.n));
  for (std::int64_t i = 0; i < s.m; ++i)
    for (std::int64_t k = 0; k < s.k; ++k)
      a[static_cast<std::size_t>(i * lda + k)] = static_cast<std::uint8_t>(gen.uniform_int(1, 255));
  for (std::int8_t& v : b) v = static_cast<std::int8_t>(gen.uniform_int(-63, 63));
  std::vector<std::int8_t> packed(static_cast<std::size_t>(ops::detail::qgemm_packed_size(s.k, s.n)));
  ops::detail::qgemm_pack_b(b.data(), s.k, s.n, packed.data());
  std::vector<std::int32_t> colsum(static_cast<std::size_t>(s.n), 0);
  for (std::int64_t k = 0; k < s.k; ++k)
    for (std::int64_t j = 0; j < s.n; ++j)
      colsum[static_cast<std::size_t>(j)] += b[static_cast<std::size_t>(k * s.n + j)];
  std::vector<std::int32_t> out(static_cast<std::size_t>(s.m * s.n), 0);

  ops::detail::qgemm(a.data(), lda, packed.data(), colsum.data(), out.data(), s.m, s.k, s.n);
  for (std::int64_t i = 0; i < s.m; ++i)
    for (std::int64_t j = 0; j < s.n; ++j) {
      std::int64_t want = 0;
      for (std::int64_t k = 0; k < s.k; ++k)
        want += (static_cast<std::int64_t>(a[static_cast<std::size_t>(i * lda + k)]) - 128) *
                b[static_cast<std::size_t>(k * s.n + j)];
      if (out[static_cast<std::size_t>(i * s.n + j)] != want) {
        r.fail("qgemm disagrees with the exact integer reference");
        return 0.0;
      }
    }

  const std::vector<double> times = repeat_timed(t, "tensor.qgemm", min_seconds, [&] {
    ops::detail::qgemm(a.data(), lda, packed.data(), colsum.data(), out.data(), s.m, s.k, s.n);
  });
  return 2.0 * static_cast<double>(s.m * s.k * s.n) / median(times) / 1e9;
}

layer_probe::layer_probe(tracer& t, const char* forward_name)
    : tracer_{&t}, forward_name_{forward_name} {}

tensor layer_probe::observe(const models::model& m, const tensor& batch, std::int64_t call) {
  models::forward_pass fp = [&] {
    const span s{*tracer_, forward_name_, call};
    return m.forward(batch, ad::norm_mode::eval);
  }();
  nodes_.push_back(static_cast<double>(fp.graph.node_count()));
  serve::enclave_session session{enclave_};
  session.begin_batch();
  {
    const span s{*tracer_, "shield.shield_batch", call};
    const shield::masked_view view =
        shield::shield_batch(fp.graph, m.shield_frontier_tags(), session.port(), "probe/");
    bytes_.push_back(static_cast<double>(view.report().total_bytes()));
  }
  enclave_ns_ += session.end_batch().enclave_ns;
  samples_ += batch.size(0);
  return fp.graph.value(fp.logits);
}

void layer_probe::observe_for(const models::model& m, const tensor& batch, double min_seconds) {
  const std::int64_t start = steady_ns();
  for (std::int64_t i = 0; seconds_since(start) < min_seconds || i < 5; ++i) observe(m, batch, i);
}

void layer_probe::summarize(layer_numbers& out) const {
  out.forward_us_per_batch = median(tracer_->durations_us(forward_name_));
  out.nodes_per_forward = median(nodes_);
  out.shield_apply_us_per_batch = median(tracer_->durations_us("shield.shield_batch"));
  out.shield_bytes_per_batch = mean(bytes_);
  out.tee_modeled_ns_per_request = enclave_ns_ / static_cast<double>(samples_);
}

}  // namespace perfbench
