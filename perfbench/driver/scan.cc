// Workload `scan`: warm, read-only group-by scans. Two read-only
// QueryServices serve the same allocated EDB, one scanning the row file and
// one the columnar mirror; cache, aggregate index and synopsis are off, so
// every answer is a parallel scan (8 shards, nproc threads). The pool holds
// the row file and the mirror and is warmed before timing. One client runs
// a closed loop: each query goes to the row service and then to the
// columnar one. Queries are point aggregates over every level-1 and level-2
// node of each dimension (functions rotating through sum/count/avg/min/max)
// and rollups at levels 1-2, in a seeded order.

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/allocator.h"
#include "bench/bench_util.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/query.h"
#include "layers.h"
#include "serve/query_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using iolap::AggregateFunc;
using iolap::AggregateResult;
using iolap::QueryRegion;
using iolap::QueryService;

constexpr int64_t kPoolPages = 16384;  // 64 MiB: row EDB + mirror fit
constexpr int kShards = 8;
constexpr int kSetups = 3;
constexpr int kSpeedupQueries = 64;    // replayed at 1 thread when traced

constexpr AggregateFunc kFuncs[] = {AggregateFunc::kSum, AggregateFunc::kCount,
                                    AggregateFunc::kAverage,
                                    AggregateFunc::kMin, AggregateFunc::kMax};

struct Query {
  QueryRegion region;
  AggregateFunc func = AggregateFunc::kSum;
  int dim = 0;    // the rollup's dimension, or the point node's
  int level = 0;  // the rollup's level, or the point node's
  iolap::NodeId node = -1;  // the point aggregate's node; -1 for a rollup
  bool rollup() const { return node < 0; }
};

std::vector<Query> MakeQueries(const iolap::StarSchema& schema, uint64_t seed) {
  std::vector<Query> points, rollups;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const iolap::Hierarchy& h = schema.dim(d);
    for (int level = 1; level <= 2 && level < h.num_levels(); ++level) {
      for (iolap::NodeId node : h.nodes_at_level(level)) {
        Query q;
        q.region = QueryRegion::All().With(d, node);
        q.dim = d;
        q.level = level;
        q.node = node;
        points.push_back(q);
      }
      Query r;
      r.dim = d;
      r.level = level;
      rollups.push_back(r);
    }
  }
  std::vector<Query> all = points;
  all.insert(all.end(), rollups.begin(), rollups.end());
  for (size_t i = 0; i < all.size(); ++i) all[i].func = kFuncs[i % 5];
  iolap::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  for (size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.Uniform(i)]);
  }
  return all;
}

iolap::Status Execute(QueryService& service, const Query& q,
                      std::vector<AggregateResult>* out,
                      iolap::AnswerStats* stats) {
  if (q.rollup()) {
    iolap::Result<std::vector<AggregateResult>> r =
        service.RollUp(q.region, q.dim, q.level, q.func);
    if (!r.ok()) return r.status();
    *out = std::move(r).value();
    return iolap::Status::Ok();
  }
  iolap::Result<AggregateResult> r =
      service.Aggregate(q.region, q.func, iolap::AnswerSpec::Exact(), stats);
  if (!r.ok()) return r.status();
  out->assign(1, r.value());
  return iolap::Status::Ok();
}

iolap::ServeOptions ScanOptions(iolap::EdbFormat format, int threads) {
  iolap::ServeOptions o;
  o.num_threads = threads;
  o.num_shards = kShards;
  o.cache_slots = 0;
  o.agg_index = false;
  o.synopsis = false;
  o.edb_format = format;
  return o;
}

/// One set-up: dataset, allocation, and the two services over it.
struct Served {
  explicit Served(const RunConfig& cfg)
      : dir(cfg.work_root, "scan"), env(dir.path(), kPoolPages) {}
  WorkDir dir;
  iolap::StorageEnv env;
  iolap::AllocationResult alloc;
  std::unique_ptr<QueryService> row;
  std::unique_ptr<QueryService> col;
};

/// Runs the rollups on `service`: touches every projected column page.
void Warm(QueryService& service, const std::vector<Query>& queries) {
  std::vector<AggregateResult> out;
  for (const Query& q : queries) {
    if (q.rollup()) CheckOk(Execute(service, q, &out, nullptr), "warm-up scan");
  }
}

std::unique_ptr<Served> SetUp(const RunConfig& cfg,
                              const iolap::StarSchema& schema,
                              const std::vector<Query>& queries,
                              Tracer& tracer) {
  tracer.BeginOp();
  auto s = std::make_unique<Served>(cfg);
  iolap::TypedFile<iolap::FactRecord> facts;
  {
    SpanScope span(tracer, "datagen.GenerateFacts");
    facts = Take(iolap::GenerateFacts(
                     s->env, schema,
                     iolap::AutomotiveLikeSpec(cfg.facts, cfg.seed)),
                 "GenerateFacts");
  }
  {
    SpanScope span(tracer, "alloc.Run.transitive");
    iolap::AllocationOptions options;
    options.num_threads = Threads();
    s->alloc = Take(iolap::Allocator::Run(s->env, schema, &facts, options),
                    "Allocator::Run");
    CountAllocation(span, s->alloc);
  }
  {
    SpanScope span(tracer, "serve.construct");
    s->row = std::make_unique<QueryService>(
        &s->env, &schema, &s->alloc.edb,
        ScanOptions(iolap::EdbFormat::kRow, Threads()));
    s->col = std::make_unique<QueryService>(
        &s->env, &schema, &s->alloc.edb,
        ScanOptions(iolap::EdbFormat::kColumnar, Threads()));
    Warm(*s->row, queries);
    Warm(*s->col, queries);
  }
  return s;
}

bool SameBytes(const std::vector<AggregateResult>& a,
               const std::vector<AggregateResult>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(AggregateResult)) ==
              0);
}

bool Close(double a, double b) {
  return a == b || std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

bool CloseResults(const std::vector<AggregateResult>& got,
                  const std::vector<AggregateResult>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!Close(got[i].sum, want[i].sum) || !Close(got[i].count, want[i].count) ||
        !Close(got[i].min, want[i].min) || !Close(got[i].max, want[i].max) ||
        !Close(got[i].value, want[i].value)) {
      return false;
    }
  }
  return true;
}

/// The serial QueryEngine oracle over every query of the set: the parallel
/// row service's answers (`row_answers`, by query index; empty where the
/// timed loop did not reach a query) must agree within 1e-9. The columnar
/// answers are memcmp-equal to them. A point aggregate over a node is the
/// node's group of the full rollup at its level, so one serial rollup per
/// (dimension, level, function) answers every query. Untimed, once per run.
void CheckAgainstQueryEngine(
    Served& s, const iolap::StarSchema& schema,
    const std::vector<Query>& queries,
    std::vector<std::vector<AggregateResult>>& row_answers, Checks& checks) {
  iolap::QueryEngine engine(&s.env, &schema, &s.alloc.edb);
  std::map<std::tuple<int, int, AggregateFunc>, std::vector<AggregateResult>>
      rollups;
  int64_t mismatches = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    std::vector<AggregateResult>& oracle = rollups[{q.dim, q.level, q.func}];
    if (oracle.empty()) {
      oracle = Take(engine.RollUp(QueryRegion::All(), q.dim, q.level, q.func),
                    "oracle");
    }
    std::vector<AggregateResult> want = oracle;
    if (!q.rollup()) {
      want.assign(1, oracle[static_cast<size_t>(
                         schema.dim(q.dim).ordinal(q.node))]);
    }
    std::vector<AggregateResult>& got = row_answers[i];
    if (got.empty()) {
      CheckOk(Execute(*s.row, q, &got, nullptr), "oracle comparison query");
    }
    if (checks.Inject("scan.oracle")) got[0].value += 1.0;
    if (!CloseResults(got, want)) ++mismatches;
  }
  checks.Expect(mismatches == 0,
                "scan: " + std::to_string(mismatches) +
                    " answers differ from the serial QueryEngine");
}

/// Median latency of the first queries on `service`.
double MedianLatency(QueryService& service, const std::vector<Query>& queries) {
  std::vector<double> lat;
  std::vector<AggregateResult> out;
  for (size_t i = 0; i < queries.size() && i < kSpeedupQueries; ++i) {
    const double t0 = NowSeconds();
    CheckOk(Execute(service, queries[i], &out, nullptr), "speedup replay");
    lat.push_back(NowSeconds() - t0);
  }
  return Median(lat);
}

void ReportPerLayer(const iolap::StarSchema& schema,
                    const std::vector<Query>& queries, Served& s,
                    Tracer& tracer, Report& report) {
  report.Metric("datagen.generate_s",
                Median(SpanSeconds(tracer, "datagen.GenerateFacts")), "s");
  ReportAllocation(tracer, "alloc.Run.transitive", "alloc.transitive.",
                   report);
  report.Metric("serve.construct_s",
                Median(SpanSeconds(tracer, "serve.construct")), "s");

  const StorageCounters row = SumStorage(tracer, "serve.row.Query");
  const StorageCounters col = SumStorage(tracer, "serve.col.Query");
  const double row_n =
      static_cast<double>(SpanSeconds(tracer, "serve.row.Query").size());
  const double col_n =
      static_cast<double>(SpanSeconds(tracer, "serve.col.Query").size());
  StorageCounters total = row;
  total += col;
  ReportPool(total, row_n + col_n, report);
  report.Metric("pool.pins_per_query.row",
                Ratio(static_cast<double>(row.pins()), row_n), "count/query");
  report.Metric("pool.pins_per_query.col",
                Ratio(static_cast<double>(col.pins()), col_n), "count/query");

  for (const char* side : {"row", "col"}) {
    const std::string span = std::string("serve.") + side + ".Query";
    const std::string prefix = std::string("scan.") + side + ".";
    report.Metric(prefix + "agg_us",
                  Median(SpanSecondsWhere(tracer, span, "rollup", 0)) * 1e6,
                  "us");
    report.Metric(prefix + "rollup_us",
                  Median(SpanSecondsWhere(tracer, span, "rollup", 1)) * 1e6,
                  "us");
  }

  // Every answer here is a scan; the tier counters confirm it.
  std::vector<double> tiers = CounterValues(tracer, "serve.row.Query", "tier");
  const std::vector<double> col_tiers =
      CounterValues(tracer, "serve.col.Query", "tier");
  tiers.insert(tiers.end(), col_tiers.begin(), col_tiers.end());
  int64_t scans = 0;
  for (double t : tiers) scans += t == static_cast<int>(iolap::AnswerTier::kScan);
  report.Metric("tier.scan.share",
                Ratio(static_cast<double>(scans), static_cast<double>(tiers.size())),
                "ratio");
  std::vector<double> scan_us =
      SpanSecondsWhere(tracer, "serve.row.Query", "rollup", 0);
  const std::vector<double> col_us =
      SpanSecondsWhere(tracer, "serve.col.Query", "rollup", 0);
  scan_us.insert(scan_us.end(), col_us.begin(), col_us.end());
  report.Metric("tier.scan.us", Median(scan_us) * 1e6, "us");

  // Thread scaling: the same queries on 1-thread services.
  {
    QueryService row1(&s.env, &schema, &s.alloc.edb,
                      ScanOptions(iolap::EdbFormat::kRow, 1));
    QueryService col1(&s.env, &schema, &s.alloc.edb,
                      ScanOptions(iolap::EdbFormat::kColumnar, 1));
    Warm(row1, queries);
    Warm(col1, queries);
    report.Metric("scan.row.speedup_nt",
                  Ratio(MedianLatency(row1, queries),
                        MedianLatency(*s.row, queries)),
                  "x");
    report.Metric("scan.col.speedup_nt",
                  Ratio(MedianLatency(col1, queries),
                        MedianLatency(*s.col, queries)),
                  "x");
  }
  ReportColumnarConversion(s.env, schema, s.alloc.edb, tracer, report);
}

}  // namespace

void RunScan(const RunConfig& cfg, Tracer& tracer, Report& report,
             Checks& checks, OpCounter& ops) {
  const iolap::StarSchema schema =
      Take(iolap::MakeAutomotiveSchema(), "automotive schema");
  const std::vector<Query> queries = MakeQueries(schema, cfg.seed);

  // Set up several times; the median is setup_s, the last one is measured.
  std::vector<double> setup_s;
  std::unique_ptr<Served> served;
  for (int i = 0; i < kSetups; ++i) {
    served.reset();
    const double t0 = NowSeconds();
    served = SetUp(cfg, schema, queries, tracer);
    setup_s.push_back(NowSeconds() - t0);
  }
  Served& s = *served;

  std::vector<double> lat[2];  // row, columnar
  QueryService* services[2] = {s.row.get(), s.col.get()};
  const char* spans[2] = {"serve.row.Query", "serve.col.Query"};
  std::vector<AggregateResult> answers[2];
  std::vector<std::vector<AggregateResult>> row_answers(queries.size());
  int64_t mismatches = 0;
  size_t next = 0;
  TimedLoop loop(tracer, cfg.seconds, 1);
  while (loop.Continue()) {
    const size_t index = next++ % queries.size();
    const Query& q = queries[index];
    tracer.BeginOp();
    bool ok = true;
    for (int side = 0; side < 2; ++side) {
      SpanScope span(tracer, spans[side]);
      const StorageCounters before =
          tracer.enabled() ? StorageCounters::Take(s.env) : StorageCounters{};
      iolap::AnswerStats stats;
      const double t0 = NowSeconds();
      const iolap::Status status =
          Execute(*services[side], q, &answers[side], &stats);
      const double dt = NowSeconds() - t0;
      ok = ops.Record(status) && ok;
      if (!status.ok()) continue;
      lat[side].push_back(dt);
      loop.Record(dt);
      if (tracer.enabled()) {
        CountStorage(span, StorageCounters::Take(s.env) - before);
        span.Count("rollup", q.rollup() ? 1 : 0);
        if (!q.rollup()) span.Count("tier", static_cast<double>(stats.tier));
      }
    }
    if (!ok) continue;
    if (checks.Inject("scan.row_col")) answers[1][0].sum += 1.0;
    if (!SameBytes(answers[0], answers[1])) ++mismatches;
    if (row_answers[index].empty()) row_answers[index] = answers[0];
  }
  checks.Expect(mismatches == 0,
                "scan: " + std::to_string(mismatches) +
                    " row/columnar answers are not byte-identical");
  CheckAgainstQueryEngine(s, schema, queries, row_answers, checks);

  report.Detail("queries_in_order", static_cast<double>(queries.size()));
  report.Detail("edb_rows", static_cast<double>(s.alloc.edb.size()));
  report.Detail("pool_pages", static_cast<double>(kPoolPages));
  report.Detail("shards", s.row->num_shards());
  for (int side = 0; side < 2; ++side) {
    const LatencySummary sum = Summarize(lat[side]);
    const std::string name = side == 0 ? "row_scan" : "col_scan";
    report.Detail(name + "_n", static_cast<double>(sum.n));
    report.Detail(name + "_p50_us", sum.p50 * 1e6);
    report.Detail(name + "_tail_pct", sum.tail_pct);
    report.Detail(name + "_tail_us", sum.tail * 1e6);
  }

  if (tracer.enabled()) {
    ReportPerLayer(schema, queries, s, tracer, report);
    report.Metric("trace.overhead_frac", loop.overhead_frac(), "ratio");
    return;
  }
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("op_a_p50_ms", Median(lat[0]) * 1e3, "ms");
  report.Metric("op_b_p50_ms", Median(lat[1]) * 1e3, "ms");
  report.Metric("ops_per_s", loop.ops_per_s(), "1/s");
  report.Metric("disk_bytes_per_fact",
                static_cast<double>(DirectoryBytes(s.dir.path())) /
                    static_cast<double>(cfg.facts),
                "B/fact");
  report.Metric("alloc_page_ios", static_cast<double>(DemandIos(s.alloc)),
                "count");
}

}  // namespace perfbench
