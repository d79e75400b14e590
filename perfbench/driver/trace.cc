#include "trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "obs/json_util.h"
#include "stats.h"

namespace perfbench {

double Span::counter(std::string_view key, double fallback) const {
  for (const auto& [k, v] : counters) {
    if (key == k) return v;
  }
  return fallback;
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int32_t Tracer::Open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::Close(int32_t span) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::Count(int32_t span, const char* key, double value) {
  if (span < 0) return;
  spans_[static_cast<size_t>(span)].counters.emplace_back(key, value);
}

iolap::Status Tracer::Write(const std::string& path) const {
  std::string out = "{\"spans\":[\n";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i ? ",\n{\"name\":" : "{\"name\":";
    iolap::AppendJsonString(&out, s.name);
    std::snprintf(buf, sizeof(buf),
                  ",\"op\":%lld,\"parent\":%d,\"start_ns\":%lld,"
                  "\"end_ns\":%lld",
                  static_cast<long long>(s.op), s.parent,
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += buf;
    if (!s.counters.empty()) {
      out += ",\"counters\":{";
      for (size_t c = 0; c < s.counters.size(); ++c) {
        if (c) out += ',';
        iolap::AppendJsonString(&out, s.counters[c].first);
        std::snprintf(buf, sizeof(buf), ":%.17g", s.counters[c].second);
        out += buf;
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  std::ofstream file(path, std::ios::binary);
  file << out;
  file.close();
  if (!file) return iolap::Status::IoError("cannot write " + path);
  return iolap::Status::Ok();
}

TimedLoop::TimedLoop(Tracer& tracer, double seconds, int64_t min_iterations)
    : tracer_(tracer),
      traced_(tracer.enabled()),
      seconds_(seconds),
      min_iterations_(min_iterations),
      start_(NowSeconds()) {
  tracer_.set_enabled(false);
}

bool TimedLoop::Continue() {
  const double elapsed = NowSeconds() - start_;
  if (traced_ && phase_ == 0 && elapsed >= seconds_ / 2 &&
      iterations_[0] >= min_iterations_) {
    phase_ = 1;
    tracer_.set_enabled(true);
  }
  const bool more = elapsed < seconds_ ||
                    iterations_[phase_] < min_iterations_ ||
                    (traced_ && phase_ == 0);
  if (more) {
    ++iterations_[phase_];
  } else {
    tracer_.set_enabled(traced_);
  }
  return more;
}

void TimedLoop::Record(double op_seconds) {
  op_seconds_[phase_] += op_seconds;
  ++ops_[phase_];
}

double TimedLoop::ops_per_s() const {
  return op_seconds_[0] > 0 ? static_cast<double>(ops_[0]) / op_seconds_[0] : 0;
}

double TimedLoop::overhead_frac() const {
  if (ops_[0] == 0 || ops_[1] == 0) return 0;
  const double untraced = op_seconds_[0] / static_cast<double>(ops_[0]);
  const double traced = op_seconds_[1] / static_cast<double>(ops_[1]);
  return untraced > 0 ? traced / untraced - 1.0 : 0;
}

StorageCounters& StorageCounters::operator+=(const StorageCounters& o) {
  pool.hits += o.pool.hits;
  pool.misses += o.pool.misses;
  pool.evictions += o.pool.evictions;
  pool.dirty_writebacks += o.pool.dirty_writebacks;
  pool.writeback_batches += o.pool.writeback_batches;
  pool.prefetch_hits += o.pool.prefetch_hits;
  pool.prefetch_wasted += o.pool.prefetch_wasted;
  pool.prefetch_gated += o.pool.prefetch_gated;
  io += o.io;
  return *this;
}

void CountStorage(SpanScope& span, const StorageCounters& d) {
  span.Count("pool.hits", static_cast<double>(d.pool.hits));
  span.Count("pool.misses", static_cast<double>(d.pool.misses));
  span.Count("pool.evictions", static_cast<double>(d.pool.evictions));
  span.Count("pool.dirty_writebacks",
             static_cast<double>(d.pool.dirty_writebacks));
  span.Count("pool.writeback_batches",
             static_cast<double>(d.pool.writeback_batches));
  span.Count("pool.prefetch_hits", static_cast<double>(d.pool.prefetch_hits));
  span.Count("pool.prefetch_wasted",
             static_cast<double>(d.pool.prefetch_wasted));
  span.Count("disk.page_reads", static_cast<double>(d.io.page_reads));
  span.Count("disk.page_writes", static_cast<double>(d.io.page_writes));
  span.Count("disk.prefetch_reads", static_cast<double>(d.io.prefetch_reads));
}

std::vector<double> SpanSeconds(const Tracer& tracer, std::string_view name) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (name == s.name) out.push_back(s.seconds());
  }
  return out;
}

std::vector<double> SpanSecondsWhere(const Tracer& tracer,
                                     std::string_view name,
                                     std::string_view key, double value) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (name == s.name && s.counter(key, value + 1) == value) {
      out.push_back(s.seconds());
    }
  }
  return out;
}

std::vector<double> CounterValues(const Tracer& tracer, std::string_view name,
                                  std::string_view key) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (name != s.name) continue;
    for (const auto& [k, v] : s.counters) {
      if (key == k) {
        out.push_back(v);
        break;
      }
    }
  }
  return out;
}

StorageCounters SumStorage(const Tracer& tracer, std::string_view name) {
  StorageCounters total;
  for (const Span& s : tracer.spans()) {
    if (name != s.name) continue;
    StorageCounters d;
    d.pool.hits = static_cast<int64_t>(s.counter("pool.hits"));
    d.pool.misses = static_cast<int64_t>(s.counter("pool.misses"));
    d.pool.evictions = static_cast<int64_t>(s.counter("pool.evictions"));
    d.pool.dirty_writebacks =
        static_cast<int64_t>(s.counter("pool.dirty_writebacks"));
    d.pool.writeback_batches =
        static_cast<int64_t>(s.counter("pool.writeback_batches"));
    d.pool.prefetch_hits =
        static_cast<int64_t>(s.counter("pool.prefetch_hits"));
    d.pool.prefetch_wasted =
        static_cast<int64_t>(s.counter("pool.prefetch_wasted"));
    d.io.page_reads = static_cast<int64_t>(s.counter("disk.page_reads"));
    d.io.page_writes = static_cast<int64_t>(s.counter("disk.page_writes"));
    d.io.prefetch_reads =
        static_cast<int64_t>(s.counter("disk.prefetch_reads"));
    total += d;
  }
  return total;
}

}  // namespace perfbench
