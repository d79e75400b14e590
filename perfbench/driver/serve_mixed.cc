// Workload `serve_mixed`: tiered serving with writes beside reads. One
// maintained QueryService (columnar mirror, aggregate cache, aggregate
// index and synopsis on; 8 shards, nproc threads) over a pool smaller than
// the row EDB plus its mirror. One client runs a closed loop over a seeded
// op stream: about 95% reads with skewed region choice (a third repeat a
// recent region) -- exact aggregates of all five functions, bounded
// aggregates, rollups and a few CompletionsOf full scans -- and, as every
// 20th op, a write: 50-fact batches cycling update, insert, update, delete
// (deletes remove the oldest inserts, so inserts and deletes balance), with
// a Compact every 20 writes. Maintenance, the R-tree, the three listeners'
// upkeep, cache invalidation, index refresh and the mirror being dropped on
// write all run.
//
// The index answers every SUM/COUNT/AVG before the synopsis is consulted,
// so bounded reads end in the cache or the index, and the synopsis answer
// tier does not run (see perfbench/README.md).

#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "layers.h"
#include "serve/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using iolap::AggregateFunc;
using iolap::AggregateResult;
using iolap::FactRecord;
using iolap::QueryRegion;
using iolap::QueryService;

constexpr int64_t kPoolPages = 4096;  // 16 MiB, below row EDB + mirror
constexpr int kShards = 8;
constexpr int kSetups = 3;
constexpr int kBatchFacts = 50;
constexpr int kCompactEvery = 20;      // writes
constexpr int kWriteEvery = 20;        // ops; 5% writes, evenly spaced
constexpr double kRepeatShare = 1.0 / 3;
constexpr int kExactCheckEvery = 8;    // exact reads re-checked by a scan
constexpr double kDelta = 0.05;
// The dataset is the same for every seed; the seed drives the op stream.
// A batch's cost is set by the allocation components it touches, and the
// size of the largest ones varies between generated datasets by more than
// the benchmark's bound on write latency.
constexpr uint64_t kDataSeed = 1;
constexpr size_t kRecentOps = 32;

constexpr AggregateFunc kFuncs[] = {AggregateFunc::kSum, AggregateFunc::kCount,
                                    AggregateFunc::kAverage,
                                    AggregateFunc::kMin, AggregateFunc::kMax};

enum class OpKind { kAgg, kBounded, kRollUp, kCompletions, kUpdate, kInsert,
                    kDelete, kCompact };

const char* SpanName(OpKind kind) {
  switch (kind) {
    case OpKind::kAgg: return "serve.Aggregate";
    case OpKind::kBounded: return "serve.AggregateBounded";
    case OpKind::kRollUp: return "serve.RollUp";
    case OpKind::kCompletions: return "serve.CompletionsOf";
    case OpKind::kUpdate: return "serve.ApplyUpdates";
    case OpKind::kInsert: return "serve.InsertFacts";
    case OpKind::kDelete: return "serve.DeleteFacts";
    case OpKind::kCompact: return "serve.Compact";
  }
  return "?";
}

bool IsRead(OpKind kind) { return kind <= OpKind::kCompletions; }

constexpr const char* kReadSpans[] = {"serve.Aggregate",
                                      "serve.AggregateBounded", "serve.RollUp",
                                      "serve.CompletionsOf"};
constexpr const char* kBatchSpans[] = {"serve.ApplyUpdates",
                                       "serve.InsertFacts",
                                       "serve.DeleteFacts"};

iolap::ServeOptions MixedOptions(int threads) {
  iolap::ServeOptions o;
  o.num_threads = threads;
  o.num_shards = kShards;
  o.agg_index = true;
  o.synopsis = true;
  o.edb_format = iolap::EdbFormat::kColumnar;
  return o;  // cache on at its default size
}

/// One set-up: dataset, maintained EDB, service, and the client's view of
/// the stored facts.
struct Served {
  explicit Served(const RunConfig& cfg)
      : dir(cfg.work_root, "serve"), env(dir.path(), kPoolPages) {}
  WorkDir dir;
  iolap::StorageEnv env;
  std::unique_ptr<iolap::MaintenanceManager> manager;
  std::unique_ptr<QueryService> service;
  std::vector<FactRecord> base;      // generated facts, as stored now
  std::deque<FactRecord> inserted;   // live inserts, oldest first
  iolap::FactId next_id = 0;
  double epsilon = 0;                // bounded-read error budget
  int64_t build_page_ios = 0;        // demand I/O of the maintained build
};

std::unique_ptr<Served> SetUp(const RunConfig& cfg,
                              const iolap::StarSchema& schema,
                              Tracer& tracer) {
  tracer.BeginOp();
  auto s = std::make_unique<Served>(cfg);
  iolap::TypedFile<FactRecord> facts;
  {
    SpanScope span(tracer, "datagen.GenerateFacts");
    facts = Take(iolap::GenerateFacts(
                     s->env, schema,
                     iolap::AutomotiveLikeSpec(cfg.facts, kDataSeed)),
                 "GenerateFacts");
  }
  s->base = Take(ReadFacts(s->env, facts), "reading facts");
  for (const FactRecord& f : s->base) {
    s->next_id = std::max(s->next_id, f.fact_id + 1);
  }
  {
    SpanScope span(tracer, "edb.MaintenanceManager.Build");
    iolap::AllocationOptions options;
    options.num_threads = Threads();
    const iolap::IoStats before = s->env.disk().stats();
    s->manager = Take(
        iolap::MaintenanceManager::Build(s->env, schema, &facts, options),
        "MaintenanceManager::Build");
    s->build_page_ios = (s->env.disk().stats() - before).total();
    CountAllocation(span, s->manager->build_result());
  }
  {
    SpanScope span(tracer, "serve.construct");
    s->service = std::make_unique<QueryService>(s->manager.get(),
                                                MixedOptions(Threads()));
    const AggregateResult grand =
        Take(s->service->Aggregate(QueryRegion::All(), AggregateFunc::kSum),
             "first query");
    CheckOk(s->service->agg_index()->Build(), "aggregate index build");
    s->epsilon = 0.05 * std::max(1.0, std::abs(grand.value));
  }
  return s;
}

/// The seeded op stream. Outcomes never feed back into it.
class OpStream {
 public:
  OpStream(const iolap::StarSchema& schema, uint64_t seed)
      : schema_(schema), rng_(seed * 0x9e3779b97f4a7c15ULL + 29) {}

  struct Op {
    OpKind kind = OpKind::kAgg;
    QueryRegion region;
    AggregateFunc func = AggregateFunc::kSum;
    int dim = 0;
    int level = 2;
    uint64_t pick = 0;  // fact choice for completions / batches
  };

  Op Next() {
    Op op;
    op.pick = rng_.Next();
    if (++ops_ % kWriteEvery == 0) {
      if (batches_since_compact_ == kCompactEvery - 1) {
        batches_since_compact_ = 0;
        op.kind = OpKind::kCompact;
        return op;
      }
      ++batches_since_compact_;
      static constexpr OpKind kCycle[] = {OpKind::kUpdate, OpKind::kInsert,
                                          OpKind::kUpdate, OpKind::kDelete};
      op.kind = kCycle[batches_++ % 4];
      return op;
    }
    // A third of reads repeat a recent read (region, function and kind),
    // so the cache tier sees real reuse.
    if (!recent_.empty() && rng_.Bernoulli(kRepeatShare)) {
      Op repeat = recent_[rng_.Uniform(recent_.size())];
      repeat.pick = op.pick;
      return repeat;
    }
    const double r = rng_.NextDouble();
    op.kind = r < 0.88   ? OpKind::kAgg
              : r < 0.93 ? OpKind::kBounded
              : r < 0.99 ? OpKind::kRollUp
                         : OpKind::kCompletions;
    // Dashboard-like function mix: mostly sum/count/avg, some min/max
    // (which the index cannot answer while writes leave min/max dirty).
    const double f = rng_.NextDouble();
    op.func = f < 0.3    ? AggregateFunc::kSum
              : f < 0.55 ? AggregateFunc::kCount
              : f < 0.8  ? AggregateFunc::kAverage
              : f < 0.9  ? AggregateFunc::kMin
                         : AggregateFunc::kMax;
    if (op.kind == OpKind::kBounded) {
      op.func = kFuncs[rng_.Uniform(3)];  // sum / count / avg
    }
    op.region = Region();
    op.dim = SkewedDim();
    op.level = 2;
    if (recent_.size() < kRecentOps) {
      recent_.push_back(op);
    } else {
      recent_[next_recent_++ % kRecentOps] = op;
    }
    return op;
  }

 private:
  /// Skewed toward low ordinals: index floor(n * u^3).
  size_t Skewed(size_t n) {
    const double u = rng_.NextDouble();
    return std::min(n - 1, static_cast<size_t>(static_cast<double>(n) * u * u * u));
  }

  int SkewedDim() {
    return static_cast<int>(Skewed(static_cast<size_t>(schema_.num_dims())));
  }

  iolap::NodeId SkewedNode(int dim, int level) {
    const auto& nodes = schema_.dim(dim).nodes_at_level(level);
    return nodes[Skewed(nodes.size())];
  }

  QueryRegion Region() {
    const int d = SkewedDim();
    QueryRegion region =
        QueryRegion::All().With(d, SkewedNode(d, rng_.Bernoulli(0.6) ? 2 : 1));
    if (rng_.Bernoulli(0.2)) {
      const int d2 = (d + 1 + static_cast<int>(rng_.Uniform(
                                  static_cast<uint64_t>(schema_.num_dims() - 1)))) %
                     schema_.num_dims();
      region.With(d2, SkewedNode(d2, 2));
    }
    return region;
  }

  const iolap::StarSchema& schema_;
  iolap::Rng rng_;
  std::vector<Op> recent_;
  size_t next_recent_ = 0;
  int batches_since_compact_ = 0;
  int64_t batches_ = 0;
  int64_t ops_ = 0;
};

/// The requested aggregate (`value`) agrees within 1e-9. Only `value` is
/// the answer: the index tier keeps the other accumulator fields of a
/// non-MIN/MAX query lazily, so they may lag a scan's.
bool Close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

/// Layer counters of the serve stack, snapshotted around traced ops.
struct TierCounters {
  iolap::AggregateCache::Stats cache;
  iolap::AggIndex::Stats index;
  iolap::SynopsisStore::Stats synopsis;

  static TierCounters Take(QueryService& s) {
    return TierCounters{s.cache()->stats(), s.agg_index()->stats(),
                        s.synopsis()->stats()};
  }
};

void CountTiers(SpanScope& span, const TierCounters& a, const TierCounters& b) {
  auto d = [&span](const char* key, int64_t before, int64_t after) {
    span.Count(key, static_cast<double>(after - before));
  };
  d("cache.hits", a.cache.hits, b.cache.hits);
  d("cache.misses", a.cache.misses, b.cache.misses);
  d("cache.evicted", a.cache.evicted_entries, b.cache.evicted_entries);
  d("cache.invalidated", a.cache.invalidated_entries,
    b.cache.invalidated_entries);
  d("aggidx.probes", a.index.probes, b.index.probes);
  d("aggidx.nodes_read", a.index.nodes_read, b.index.nodes_read);
  d("aggidx.refreshes", a.index.refreshes, b.index.refreshes);
  d("aggidx.cells_patched", a.index.cells_patched, b.index.cells_patched);
  d("aggidx.marginal_hits", a.index.marginal_hits, b.index.marginal_hits);
  d("synopsis.estimates", a.synopsis.estimates, b.synopsis.estimates);
  d("synopsis.exact_hits", a.synopsis.exact_hits, b.synopsis.exact_hits);
  d("synopsis.patched", a.synopsis.patched, b.synopsis.patched);
}

void CountMaintenance(SpanScope& span, const iolap::MaintenanceStats& m) {
  span.Count("maint.seconds", m.seconds);
  span.Count("maint.components_touched",
             static_cast<double>(m.components_touched));
  span.Count("maint.tuples_fetched", static_cast<double>(m.tuples_fetched));
  span.Count("maint.rtree_nodes", static_cast<double>(m.rtree_nodes_accessed));
  span.Count("maint.rows_rewritten", static_cast<double>(m.edb_rows_rewritten));
  span.Count("maint.rows_appended", static_cast<double>(m.edb_rows_appended));
  span.Count("maint.rows_tombstoned",
             static_cast<double>(m.edb_rows_tombstoned));
  span.Count("maint.page_ios", static_cast<double>(m.io.total()));
}

/// Runs the client's checks and answers for one op.
class Client {
 public:
  Client(Served& s, Checks& checks) : s_(s), checks_(checks) {}

  /// Executes `op` (the timed part), calls `after_call` at once, and then
  /// checks the answer (untimed, and outside the caller's counter deltas).
  iolap::Status Run(const OpStream::Op& op, SpanScope& span, double* seconds,
                    const std::function<void()>& after_call);

  int64_t bounded_checked() const { return bounded_checked_; }
  int64_t bounded_estimated() const { return bounded_estimated_; }
  int64_t bounded_violations() const { return bounded_violations_; }
  int64_t exact_checked() const { return exact_checked_; }
  int64_t exact_mismatches() const { return exact_mismatches_; }
  int64_t weight_failures() const { return weight_failures_; }

 private:
  iolap::Status Batch(const OpStream::Op& op, iolap::MaintenanceStats* stats);

  Served& s_;
  Checks& checks_;
  int64_t exact_reads_ = 0, rollups_ = 0;
  int64_t exact_checked_ = 0, exact_mismatches_ = 0;
  int64_t bounded_checked_ = 0, bounded_violations_ = 0;
  int64_t bounded_estimated_ = 0;  // bounded reads the synopsis answered
  int64_t weight_failures_ = 0;
};

iolap::Status Client::Batch(const OpStream::Op& op,
                            iolap::MaintenanceStats* stats) {
  iolap::Rng rng(op.pick);
  QueryService& svc = *s_.service;
  switch (op.kind) {
    case OpKind::kUpdate: {
      std::vector<iolap::FactUpdate> updates;
      std::vector<size_t> picked;
      for (int i = 0; i < kBatchFacts; ++i) {
        const size_t j = rng.Uniform(s_.base.size());
        bool dup = false;
        for (size_t p : picked) dup = dup || p == j;
        if (dup) continue;
        picked.push_back(j);
        updates.push_back(iolap::FactUpdate{
            s_.base[j], 1.0 + static_cast<double>(rng.Uniform(250))});
      }
      const iolap::Status st = svc.ApplyUpdates(updates, stats);
      if (st.ok()) {
        for (size_t i = 0; i < picked.size(); ++i) {
          s_.base[picked[i]].measure = updates[i].new_measure;
        }
      }
      return st;
    }
    case OpKind::kInsert: {
      std::vector<FactRecord> inserts;
      for (int i = 0; i < kBatchFacts; ++i) {
        // A copy of a stored fact's region joins that fact's component
        // and never merges components, so batch cost stays flat.
        FactRecord f = s_.base[rng.Uniform(s_.base.size())];
        f.fact_id = s_.next_id++;
        f.measure = 1.0 + static_cast<double>(rng.Uniform(250));
        inserts.push_back(f);
      }
      const iolap::Status st = svc.InsertFacts(inserts, stats);
      if (st.ok()) s_.inserted.insert(s_.inserted.end(), inserts.begin(), inserts.end());
      return st;
    }
    case OpKind::kDelete: {
      const size_t n = std::min<size_t>(kBatchFacts, s_.inserted.size());
      std::vector<FactRecord> deletes(s_.inserted.begin(),
                                      s_.inserted.begin() + static_cast<long>(n));
      if (deletes.empty()) return iolap::Status::Ok();
      const iolap::Status st = svc.DeleteFacts(deletes, stats);
      if (st.ok()) s_.inserted.erase(s_.inserted.begin(), s_.inserted.begin() + static_cast<long>(n));
      return st;
    }
    default:
      return iolap::Status::Internal("not a batch");
  }
}

iolap::Status Client::Run(const OpStream::Op& op, SpanScope& span,
                          double* seconds,
                          const std::function<void()>& after_call) {
  QueryService& svc = *s_.service;
  const double t0 = NowSeconds();
  switch (op.kind) {
    case OpKind::kAgg:
    case OpKind::kBounded: {
      const bool bounded = op.kind == OpKind::kBounded;
      const iolap::AnswerSpec spec =
          bounded ? iolap::AnswerSpec::Bounded(s_.epsilon, kDelta)
                  : iolap::AnswerSpec::Exact();
      iolap::AnswerStats stats;
      iolap::Result<AggregateResult> r =
          svc.Aggregate(op.region, op.func, spec, &stats);
      *seconds = NowSeconds() - t0;
      after_call();
      if (!r.ok()) return r.status();
      span.Count("tier", static_cast<double>(stats.tier));
      span.Count("func", static_cast<double>(op.func));
      // Every bounded read is checked: the violation fraction needs them.
      if (!bounded && ++exact_reads_ % kExactCheckEvery != 0) {
        return iolap::Status::Ok();
      }
      AggregateResult got = r.value();
      const AggregateResult want = Take(
          svc.UncachedAggregate(op.region, op.func), "UncachedAggregate");
      if (bounded) {
        if (stats.tier == iolap::AnswerTier::kSynopsis) ++bounded_estimated_;
        // Corrupts every bounded answer: one bad answer may stay within delta.
        if (checks_.Injecting("serve.bounded")) got.value += 2 * s_.epsilon;
        ++bounded_checked_;
        const double err = std::abs(got.value - want.value);
        if (err > stats.bound + 1e-9 * std::max(1.0, std::abs(want.value))) {
          ++bounded_violations_;
        }
      } else {
        if (checks_.Inject("serve.exact")) got.value += 1.0;
        ++exact_checked_;
        if (!Close(got.value, want.value)) ++exact_mismatches_;
      }
      return iolap::Status::Ok();
    }
    case OpKind::kRollUp: {
      iolap::Result<std::vector<AggregateResult>> r =
          svc.RollUp(op.region, op.dim, op.level, op.func);
      *seconds = NowSeconds() - t0;
      after_call();
      if (!r.ok()) return r.status();
      if (++rollups_ % kExactCheckEvery != 0) return iolap::Status::Ok();
      const std::vector<AggregateResult> want = Take(
          svc.UncachedRollUp(op.region, op.dim, op.level, op.func),
          "UncachedRollUp");
      bool same = want.size() == r.value().size();
      for (size_t i = 0; same && i < want.size(); ++i) {
        same = Close(r.value()[i].value, want[i].value);
      }
      ++exact_checked_;
      if (!same) ++exact_mismatches_;
      return iolap::Status::Ok();
    }
    case OpKind::kCompletions: {
      const iolap::FactId id = s_.base[op.pick % s_.base.size()].fact_id;
      iolap::Result<std::vector<iolap::EdbRecord>> r = svc.CompletionsOf(id);
      *seconds = NowSeconds() - t0;
      after_call();
      if (!r.ok()) return r.status();
      double total = 0;
      for (const iolap::EdbRecord& rec : r.value()) total += rec.weight;
      if (checks_.Inject("serve.completions")) total += 0.5;
      // Definition 4; an unallocatable fact has no completions at all.
      if (!r.value().empty() && std::abs(total - 1.0) > 1e-9) ++weight_failures_;
      return iolap::Status::Ok();
    }
    case OpKind::kCompact: {
      iolap::Result<int64_t> r = svc.Compact();
      *seconds = NowSeconds() - t0;
      after_call();
      return r.status();
    }
    default: {
      iolap::MaintenanceStats stats;
      const iolap::Status st = Batch(op, &stats);
      *seconds = NowSeconds() - t0;
      after_call();
      if (st.ok()) CountMaintenance(span, stats);
      return st;
    }
  }
}

/// Sum of counter `key` over the spans named in `names`.
double SumCounter(const Tracer& tracer, std::initializer_list<const char*> names,
                  const char* key) {
  double total = 0;
  for (const char* name : names) {
    for (double v : CounterValues(tracer, name, key)) total += v;
  }
  return total;
}

size_t CountSpans(const Tracer& tracer, std::initializer_list<const char*> names) {
  size_t n = 0;
  for (const char* name : names) n += SpanSeconds(tracer, name).size();
  return n;
}

void ReportPerLayer(const iolap::StarSchema& schema, Served& s, Tracer& tracer,
                    Report& report) {
  report.Metric("datagen.generate_s",
                Median(SpanSeconds(tracer, "datagen.GenerateFacts")), "s");
  ReportAllocation(tracer, "edb.MaintenanceManager.Build", "alloc.transitive.",
                   report);
  report.Metric("serve.construct_s",
                Median(SpanSeconds(tracer, "serve.construct")), "s");

  const auto reads = {kReadSpans[0], kReadSpans[1], kReadSpans[2], kReadSpans[3]};
  const auto batches = {kBatchSpans[0], kBatchSpans[1], kBatchSpans[2]};
  const auto all = {kReadSpans[0], kReadSpans[1], kReadSpans[2], kReadSpans[3],
                    kBatchSpans[0], kBatchSpans[1], kBatchSpans[2],
                    "serve.Compact"};
  const double n_reads = static_cast<double>(CountSpans(tracer, reads));
  const double n_batches = static_cast<double>(CountSpans(tracer, batches));

  // Storage, per op; pins per read by the scan path it took.
  StorageCounters total;
  for (const char* name : all) total += SumStorage(tracer, name);
  ReportPool(total, static_cast<double>(CountSpans(tracer, all)), report);
  double pins[2] = {0, 0}, pinned_reads[2] = {0, 0};
  for (const Span& span : tracer.spans()) {
    const double active = span.counter("columnar_active", -1);
    if (active < 0) continue;
    const int side = active > 0 ? 1 : 0;
    pins[side] += span.counter("pool.hits") + span.counter("pool.misses");
    ++pinned_reads[side];
  }
  report.Metric("pool.pins_per_query.row", Ratio(pins[0], pinned_reads[0]),
                "count/query");
  report.Metric("pool.pins_per_query.col", Ratio(pins[1], pinned_reads[1]),
                "count/query");
  report.Metric("read.columnar_active_share",
                Ratio(pinned_reads[1], pinned_reads[0] + pinned_reads[1]),
                "ratio");

  // Answer tiers of the aggregate reads (exact and bounded).
  static const char* kTierNames[] = {"cache", "index", "synopsis", "scan"};
  const double n_aggs = static_cast<double>(
      CountSpans(tracer, {"serve.Aggregate", "serve.AggregateBounded"}));
  for (int t = 0; t < 4; ++t) {
    std::vector<double> us =
        SpanSecondsWhere(tracer, "serve.Aggregate", "tier", t);
    const std::vector<double> bounded_us =
        SpanSecondsWhere(tracer, "serve.AggregateBounded", "tier", t);
    us.insert(us.end(), bounded_us.begin(), bounded_us.end());
    const std::string prefix = std::string("tier.") + kTierNames[t];
    report.Metric(prefix + ".share", Ratio(static_cast<double>(us.size()), n_aggs),
                  "ratio");
    report.Metric(prefix + ".us", Median(us) * 1e6, "us");
  }
  report.Metric("read.completions_us",
                Median(SpanSeconds(tracer, "serve.CompletionsOf")) * 1e6, "us");

  const double hits = SumCounter(tracer, reads, "cache.hits");
  const double misses = SumCounter(tracer, reads, "cache.misses");
  report.Metric("cache.hit_ratio", Ratio(hits, hits + misses), "ratio");
  report.Metric("cache.invalidated_per_write",
                Ratio(SumCounter(tracer, batches, "cache.invalidated"), n_batches),
                "count/write");
  report.Metric("cache.evicted",
                Ratio(SumCounter(tracer, all, "cache.evicted"), n_reads),
                "count/read");

  const double probes = SumCounter(tracer, all, "aggidx.probes");
  report.Metric("aggidx.nodes_per_probe",
                Ratio(SumCounter(tracer, all, "aggidx.nodes_read"), probes),
                "count/probe");
  report.Metric("aggidx.marginal_hit_ratio",
                Ratio(SumCounter(tracer, all, "aggidx.marginal_hits"), probes),
                "ratio");
  report.Metric("aggidx.refreshes",
                Ratio(SumCounter(tracer, all, "aggidx.refreshes"), n_batches),
                "count/write");
  report.Metric("aggidx.cells_patched_per_write",
                Ratio(SumCounter(tracer, batches, "aggidx.cells_patched"),
                      n_batches),
                "count/write");
  report.Metric("aggidx.pages",
                static_cast<double>(s.service->agg_index()->stats().pages),
                "count");

  const double estimates = SumCounter(tracer, reads, "synopsis.estimates");
  report.Metric("synopsis.estimates", Ratio(estimates, n_reads), "count/read");
  report.Metric("synopsis.exact_hit_ratio",
                Ratio(SumCounter(tracer, reads, "synopsis.exact_hits"), estimates),
                "ratio");
  report.Metric("synopsis.patched_per_write",
                Ratio(SumCounter(tracer, batches, "synopsis.patched"), n_batches),
                "count/write");

  // Maintenance, per batch.
  std::vector<double> manager_ms, overhead_ms;
  for (const Span& span : tracer.spans()) {
    const double m = span.counter("maint.seconds", -1);
    if (m < 0) continue;
    manager_ms.push_back(m * 1e3);
    overhead_ms.push_back((span.seconds() - m) * 1e3);
  }
  report.Metric("maint.manager_ms", Median(manager_ms), "ms");
  report.Metric("maint.serve_overhead_ms", Median(overhead_ms), "ms");
  for (const char* key : {"components_touched", "tuples_fetched", "rtree_nodes",
                          "rows_rewritten", "rows_appended", "rows_tombstoned",
                          "page_ios"}) {
    const std::string name = std::string("maint.") + key;
    report.Metric(name, Ratio(SumCounter(tracer, batches, name.c_str()), n_batches),
                  "count/write");
  }
  report.Metric("maint.compact_ms",
                Median(SpanSeconds(tracer, "serve.Compact")) * 1e3, "ms");
  ReportColumnarConversion(s.env, schema, s.manager->edb(), tracer, report);
}

}  // namespace

void RunServeMixed(const RunConfig& cfg, Tracer& tracer, Report& report,
                   Checks& checks, OpCounter& ops) {
  const iolap::StarSchema schema =
      Take(iolap::MakeAutomotiveSchema(), "automotive schema");

  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetups; ++i) {
    served.reset();
    const double t0 = NowSeconds();
    served = SetUp(cfg, schema, tracer);
    setup_s.push_back(NowSeconds() - t0);
  }
  Served& s = *served;
  QueryService& svc = *s.service;

  OpStream stream(schema, cfg.seed);
  Client client(s, checks);
  std::vector<double> read_s, write_s;
  int64_t op_count[8] = {};
  TimedLoop loop(tracer, cfg.seconds, 1);
  while (loop.Continue()) {
    const OpStream::Op op = stream.Next();
    tracer.BeginOp();
    SpanScope span(tracer, SpanName(op.kind));
    const bool traced = tracer.enabled();
    StorageCounters storage_before;
    TierCounters tiers_before;
    if (traced) {
      storage_before = StorageCounters::Take(s.env);
      tiers_before = TierCounters::Take(svc);
      if (IsRead(op.kind)) {
        span.Count("columnar_active", svc.columnar_active() ? 1 : 0);
      }
    }
    double seconds = 0;
    const iolap::Status status = client.Run(op, span, &seconds, [&] {
      if (!traced) return;
      CountStorage(span, StorageCounters::Take(s.env) - storage_before);
      CountTiers(span, tiers_before, TierCounters::Take(svc));
    });
    if (!ops.Record(status)) continue;
    ++op_count[static_cast<int>(op.kind)];
    (IsRead(op.kind) ? read_s : write_s).push_back(seconds);
    loop.Record(seconds);
  }

  checks.Expect(client.exact_mismatches() == 0,
                "serve_mixed: " + std::to_string(client.exact_mismatches()) +
                    " of " + std::to_string(client.exact_checked()) +
                    " re-checked exact reads differ from UncachedAggregate");
  const double violation_frac =
      Ratio(static_cast<double>(client.bounded_violations()),
            static_cast<double>(client.bounded_checked()));
  checks.Expect(violation_frac <= kDelta,
                "serve_mixed: bounded-read violation fraction " +
                    std::to_string(violation_frac) + " exceeds delta");
  checks.Expect(client.weight_failures() == 0,
                "serve_mixed: completions whose weights do not sum to 1");

  const int64_t live_facts =
      static_cast<int64_t>(s.base.size() + s.inserted.size());
  report.Detail("data_seed", static_cast<double>(kDataSeed));
  report.Detail("edb_rows", static_cast<double>(s.manager->edb().size()));
  report.Detail("pool_pages", static_cast<double>(kPoolPages));
  report.Detail("shards", svc.num_shards());
  report.Detail("live_facts", static_cast<double>(live_facts));
  report.Detail("exact_checked", static_cast<double>(client.exact_checked()));
  report.Detail("bounded_checked", static_cast<double>(client.bounded_checked()));
  report.Detail("bounded_from_synopsis",
                static_cast<double>(client.bounded_estimated()));
  report.Detail("bounded_violation_frac", violation_frac);
  for (int k = 0; k < 8; ++k) {
    report.Detail(std::string("ops.") + SpanName(static_cast<OpKind>(k)),
                  static_cast<double>(op_count[k]));
  }
  const LatencySummary reads = Summarize(read_s);
  const LatencySummary writes = Summarize(write_s);
  report.Detail("read_n", static_cast<double>(reads.n));
  report.Detail("read_p50_us", reads.p50 * 1e6);
  report.Detail("read_tail_pct", reads.tail_pct);
  report.Detail("read_tail_us", reads.tail * 1e6);
  report.Detail("write_n", static_cast<double>(writes.n));
  report.Detail("write_p50_ms", writes.p50 * 1e3);
  report.Detail("write_tail_pct", writes.tail_pct);
  report.Detail("write_tail_ms", writes.tail * 1e3);

  if (tracer.enabled()) {
    ReportPerLayer(schema, s, tracer, report);
    report.Metric("trace.overhead_frac", loop.overhead_frac(), "ratio");
    return;
  }
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("op_a_p50_ms", reads.p50 * 1e3, "ms");
  report.Metric("op_b_p50_ms", writes.p50 * 1e3, "ms");
  report.Metric("ops_per_s", loop.ops_per_s(), "1/s");
  report.Metric("disk_bytes_per_fact",
                static_cast<double>(DirectoryBytes(s.dir.path())) /
                    static_cast<double>(live_facts),
                "B/fact");
  report.Metric("alloc_page_ios", static_cast<double>(s.build_page_ios),
                "count");
}

}  // namespace perfbench
