#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

thread_local std::int64_t tl_open_span = -1;

std::int64_t thread_index() {
  static std::atomic<std::int64_t> next{0};
  thread_local const std::int64_t index = next.fetch_add(1);
  return index;
}

}  // namespace

tracer::tracer(std::size_t capacity) : capacity_{capacity}, epoch_ns_{steady_ns()} {
  spans_.reserve(std::min<std::size_t>(capacity, 1 << 16));
}

std::int64_t tracer::next_id() {
  const std::lock_guard<std::mutex> lock{mutex_};
  return next_id_++;
}

void tracer::record(const span_record& r) {
  const std::lock_guard<std::mutex> lock{mutex_};
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  span_record rel = r;
  rel.start_ns -= epoch_ns_;
  rel.end_ns -= epoch_ns_;
  spans_.push_back(rel);
}

std::vector<span_record> tracer::spans() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_;
}

std::int64_t tracer::dropped() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return dropped_;
}

std::vector<double> tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const span_record& s : spans())
    if (name == s.name) out.push_back(s.duration_us());
  return out;
}

std::vector<double> tracer::self_us(const std::string& name) const {
  const std::vector<span_record> all = spans();
  std::map<std::int64_t, std::int64_t> child_ns;
  for (const span_record& s : all)
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::vector<double> out;
  for (const span_record& s : all) {
    if (name != s.name) continue;
    const auto it = child_ns.find(s.id);
    const std::int64_t children = it == child_ns.end() ? 0 : it->second;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - children) / 1e3);
  }
  return out;
}

void tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace file " + path);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const std::vector<span_record> all = spans();
  char line[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const span_record& s = all[i];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %lld, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld, "
                  "\"call\": %lld, \"start_ns\": %lld, \"end_ns\": %lld}}%s\n",
                  s.name, static_cast<long long>(s.tid), static_cast<double>(s.start_ns) / 1e3,
                  s.duration_us(), static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  static_cast<long long>(s.call), static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), i + 1 < all.size() ? "," : "");
    os << line;
  }
  os << "]}\n";
}

span::span(tracer& t, const char* name, std::int64_t call) : span(t, name, call, tl_open_span) {}

span::span(tracer& t, const char* name, std::int64_t call, std::int64_t parent)
    : tracer_{&t}, outer_{tl_open_span} {
  rec_.name = name;
  rec_.id = t.next_id();
  rec_.parent = parent;
  rec_.call = call;
  rec_.tid = thread_index();
  tl_open_span = rec_.id;
  rec_.start_ns = steady_ns();
}

span::~span() {
  rec_.end_ns = steady_ns();
  tl_open_span = outer_;
  tracer_->record(rec_);
}

double span::elapsed_us() const { return static_cast<double>(steady_ns() - rec_.start_ns) / 1e3; }

}  // namespace perfbench
