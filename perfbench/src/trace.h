// In-memory span recorder of the traced benchmark run.
//
// The benchmark wraps its own calls into each layer's public functions in
// `span` scopes; nothing inside the library is instrumented. Spans stay in
// memory until the run ends, then are written once as Chrome trace-event
// JSON (viewable in Perfetto or chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct span_record {
  const char* name = "";     ///< string literal: recording never allocates a name
  std::int64_t id = -1;
  std::int64_t parent = -1;  ///< -1: a root span
  std::int64_t call = -1;    ///< the call, round or request the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t tid = 0;
  double duration_us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class tracer {
public:
  /// Keeps at most `capacity` spans; later ones are counted in dropped().
  explicit tracer(std::size_t capacity = 400000);

  std::int64_t next_id();
  void record(const span_record& r);

  /// Snapshot of every recorded span, in recording order.
  std::vector<span_record> spans() const;
  std::int64_t dropped() const;

  /// Durations (µs) of every span called `name`.
  std::vector<double> durations_us(const std::string& name) const;
  /// Per-span self time (µs): duration minus the time its direct children
  /// cover, for every span called `name`.
  std::vector<double> self_us(const std::string& name) const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome_json(const std::string& path) const;

private:
  mutable std::mutex mutex_;
  std::vector<span_record> spans_;  // guarded by mutex_
  std::int64_t dropped_ = 0;        // guarded by mutex_
  std::size_t capacity_;
  std::int64_t next_id_ = 0;        // guarded by mutex_
  std::int64_t epoch_ns_;
};

/// RAII span. The parent defaults to the innermost open span on the calling
/// thread; work handed to another thread passes its parent explicitly.
class span {
public:
  span(tracer& t, const char* name, std::int64_t call = -1);
  span(tracer& t, const char* name, std::int64_t call, std::int64_t parent);
  ~span();
  span(const span&) = delete;
  span& operator=(const span&) = delete;

  std::int64_t id() const { return rec_.id; }
  /// Elapsed time so far (µs).
  double elapsed_us() const;

private:
  tracer* tracer_;
  span_record rec_;
  std::int64_t outer_;
};

}  // namespace perfbench
