#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

// Benchmark-side tracing. The driver opens one span around each call it
// makes into a library layer's public API (name, start, end, parent); the
// spans of one op share an op id, and the layer counters the driver diffs
// around the call are attached to the span at the same boundaries. Spans
// stay in memory and are written out once, when the run ends. A disabled
// tracer records nothing.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "storage/io_stats.h"
#include "storage/storage_env.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t op = 0;       // shared by every span of one op
  int32_t parent = -1;  // index of the enclosing span, -1 for an op's root
  int64_t start_ns = 0;  // since the tracer was created
  int64_t end_ns = 0;
  std::vector<std::pair<const char*, double>> counters;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  /// The named counter, or `fallback` when the span has none by that name.
  double counter(std::string_view key, double fallback = 0) const;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Turns recording on or off between ops (spans already kept stay).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Starts a new op; spans opened until the next call share its id.
  void BeginOp() { ++op_; }
  /// Opens a span nested in the innermost open one; -1 when disabled.
  int32_t Open(const char* name);
  void Close(int32_t span);
  void Count(int32_t span, const char* key, double value);

  const std::vector<Span>& spans() const { return spans_; }
  /// Writes every span as one JSON document.
  iolap::Status Write(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  int64_t op_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name)
      : tracer_(tracer), span_(tracer.Open(name)) {}
  ~SpanScope() { tracer_.Close(span_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void Count(const char* key, double value) { tracer_.Count(span_, key, value); }

 private:
  Tracer& tracer_;
  int32_t span_;
};

/// The measured closed loop of a workload: runs for `seconds` and at least
/// `min_iterations` iterations. With the tracer enabled, the first half
/// runs with it switched off and the second half with it on; the ratio of
/// their mean op latencies is the tracing overhead. Throughput is ops over
/// op time across the untraced part of the loop, so every op of a
/// workload's fixed mix counts once.
class TimedLoop {
 public:
  TimedLoop(Tracer& tracer, double seconds, int64_t min_iterations);
  /// Call before each iteration; false once the loop is done.
  bool Continue();
  /// Adds one op's latency to the current phase.
  void Record(double op_seconds);
  /// Mean traced-op latency over mean untraced-op latency, minus 1.
  double overhead_frac() const;
  /// Ops completed per second of op time, untraced part.
  double ops_per_s() const;
  int64_t iterations() const { return iterations_[0] + iterations_[1]; }

 private:
  Tracer& tracer_;
  const bool traced_;
  const double seconds_;
  const int64_t min_iterations_;
  const double start_;
  int phase_ = 0;
  int64_t iterations_[2] = {0, 0};
  double op_seconds_[2] = {0, 0};
  int64_t ops_[2] = {0, 0};
};

/// Buffer-pool and disk counters of one StorageEnv at an instant.
struct StorageCounters {
  iolap::PoolStats pool;
  iolap::IoStats io;

  static StorageCounters Take(iolap::StorageEnv& env) {
    return StorageCounters{env.pool().stats(), env.disk().stats()};
  }
  StorageCounters operator-(const StorageCounters& o) const {
    return StorageCounters{pool - o.pool, io - o.io};
  }
  StorageCounters& operator+=(const StorageCounters& o);
  int64_t pins() const { return pool.hits + pool.misses; }
};

/// Attaches the storage-counter delta of a span (pool.*, disk.*).
void CountStorage(SpanScope& span, const StorageCounters& delta);

/// Durations (seconds) of the spans named `name`, in recording order.
std::vector<double> SpanSeconds(const Tracer& tracer, std::string_view name);

/// Durations of the spans named `name` whose counter `key` equals `value`.
std::vector<double> SpanSecondsWhere(const Tracer& tracer,
                                     std::string_view name,
                                     std::string_view key, double value);

/// Values of counter `key` on the spans named `name` that carry it.
std::vector<double> CounterValues(const Tracer& tracer, std::string_view name,
                                  std::string_view key);

/// Sums the storage-counter deltas attached to spans named `name`.
StorageCounters SumStorage(const Tracer& tracer, std::string_view name);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
