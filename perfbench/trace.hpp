// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps each public call it makes into the library's
// layers (store, index, core, service, net, cluster) and its own load
// generator (gen) in a span: name, start, end, parent span and request
// id. Spans stay in memory and are summarised when the run ends. A
// layer is the part of a span name before the first '.', so
// "cluster.leg" belongs to "cluster".
//
// A span's self time is its duration minus the part of its interval
// that its child spans cover. Children may overlap each other (the
// direct per-shard legs run concurrently), so the covered part is the
// length of the union of the children's intervals, clipped to the
// parent.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since an arbitrary fixed origin.
inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
inline double covered_length(std::vector<std::pair<double, double>> intervals,
                             double lo, double hi) {
  for (auto& [start, end] : intervals) {
    start = std::max(start, lo);
    end = std::min(end, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    const double from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return covered;
}

/// Self time of every span, keyed by span id.
inline std::map<std::uint64_t, double> span_self_times(
    const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::uint64_t, double> self;
  for (const Span& span : spans) {
    const auto it = children.find(span.id);
    const double covered =
        it == children.end() ? 0.0
                             : covered_length(it->second, span.start, span.end);
    self[span.id] = std::max(0.0, span.end - span.start - covered);
  }
  return self;
}

inline std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Summed self time per layer.
inline std::map<std::string, double> layer_self_times(
    const std::vector<Span>& spans) {
  const std::map<std::uint64_t, double> self = span_self_times(spans);
  std::map<std::string, double> out;
  for (const Span& span : spans) out[layer_of(span.name)] += self.at(span.id);
  return out;
}

/// Thread-safe span sink. Disabled, it records nothing and begin()
/// returns 0, so untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::uint64_t begin(std::string name, std::uint64_t parent,
                      std::uint64_t request) {
    if (!enabled_) return 0;
    Span span;
    span.parent = parent;
    span.request = request;
    span.name = std::move(name);
    span.start = now_seconds();
    std::lock_guard<std::mutex> lock(mutex_);
    span.id = spans_.size() + 1;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void end(std::uint64_t id) {
    if (id == 0) return;
    const double t = now_seconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id - 1].end = t;
  }

  /// Drops every span recorded so far (between measurement phases).
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: begins on construction, ends on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent = 0,
             std::uint64_t request = 0)
      : tracer_(tracer),
        id_(tracer.begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
