// Workload `allocate`: the paper's offline pipeline. Each repeat generates
// the fact table and runs Allocator::Run with Transitive (component-parallel)
// and then Block, each in a fresh StorageEnv whose buffer pool (256 pages,
// 1 MiB) holds about 8% of the working set. The I/O pipeline keeps its
// shipped defaults. External sort, the pool's eviction and read-ahead, the
// window engine and the component engine do the work; serving does none.

#include <cmath>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "bench/bench_util.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using iolap::AlgorithmKind;
using iolap::AllocationResult;

constexpr int64_t kBufferPages = 256;
constexpr int kBlockIterations = 3;  // fixed, so repeats fit a run
constexpr int kExtraGenerates = 8;  // more set-up samples for setup_s

struct AlgoRuns {
  AlgorithmKind kind = AlgorithmKind::kTransitive;
  const char* span = "";
  std::vector<double> wall_s = {};
  std::vector<double> bytes = {};
  int64_t page_ios = -1;  // of the first repeat; later ones must match
  uint64_t digest = 0;
  std::vector<double> parallel_ios = {};  // iteration + emit I/O, parallel
};

/// Definition 4: the weights of each allocated fact's completions sum to 1,
/// and exactly the unallocatable facts have no EDB rows.
void CheckWeights(iolap::StorageEnv& env, const AllocationResult& r,
                  int64_t num_facts, const char* algo, Checks& checks) {
  std::vector<double> sums(static_cast<size_t>(num_facts), 0);
  std::vector<uint8_t> seen(static_cast<size_t>(num_facts), 0);
  bool ids_in_range = true;
  auto cursor = r.edb.Scan(env.pool());
  iolap::EdbRecord rec;
  while (!cursor.done()) {
    CheckOk(cursor.Next(&rec), "EDB scan");
    // GenerateFacts numbers facts 1..num_facts.
    if (rec.fact_id < 1 || rec.fact_id > num_facts) {
      ids_in_range = false;
      continue;
    }
    sums[static_cast<size_t>(rec.fact_id - 1)] += rec.weight;
    seen[static_cast<size_t>(rec.fact_id - 1)] = 1;
  }
  if (checks.Inject("alloc.weights") && num_facts > 0) sums[0] += 0.5;
  double worst = 0;
  int64_t unseen = 0;
  for (size_t i = 0; i < sums.size(); ++i) {
    if (seen[i]) {
      worst = std::max(worst, std::abs(sums[i] - 1.0));
    } else {
      ++unseen;
    }
  }
  const std::string tag = std::string(algo) + ": ";
  checks.Expect(ids_in_range, tag + "EDB fact id out of range");
  checks.Expect(worst <= 1e-9, tag + "fact weights do not sum to 1 (worst " +
                                   std::to_string(worst) + ")");
  checks.Expect(unseen == r.unallocatable_facts,
                tag + "facts without EDB rows (" + std::to_string(unseen) +
                    ") != unallocatable facts (" +
                    std::to_string(r.unallocatable_facts) + ")");
}

/// Transitive runs component-parallel on nproc threads. Block runs a fixed
/// kBlockIterations EM iterations (epsilon 0), so its work does not depend
/// on how fast a seed's data happens to converge.
iolap::AllocationOptions Options(AlgorithmKind kind) {
  iolap::AllocationOptions options;
  options.algorithm = kind;
  if (kind == AlgorithmKind::kTransitive) {
    options.num_threads = Threads();
  } else {
    options.epsilon = 0;
    options.max_iterations = kBlockIterations;
  }
  return options;
}

/// One allocator run in a fresh env; records timing, I/O and checks.
void RunOnce(const RunConfig& cfg, const iolap::StarSchema& schema,
             AlgoRuns& algo, Tracer& tracer, Checks& checks, OpCounter& ops,
             std::vector<double>& generate_s) {
  tracer.BeginOp();
  WorkDir dir(cfg.work_root, "alloc");
  iolap::StorageEnv env(dir.path(), kBufferPages);
  iolap::TypedFile<iolap::FactRecord> facts;
  {
    SpanScope span(tracer, "datagen.GenerateFacts");
    const double t0 = NowSeconds();
    facts = Take(iolap::GenerateFacts(
                     env, schema,
                     iolap::AutomotiveLikeSpec(cfg.facts, cfg.seed)),
                 "GenerateFacts");
    generate_s.push_back(NowSeconds() - t0);
  }
  iolap::AllocationOptions options = Options(algo.kind);

  iolap::Result<AllocationResult> result = iolap::Status::Internal("not run");
  {
    SpanScope span(tracer, algo.span);
    const StorageCounters before = StorageCounters::Take(env);
    const double t0 = NowSeconds();
    result = iolap::Allocator::Run(env, schema, &facts, options);
    const double wall = NowSeconds() - t0;
    if (!ops.Record(result.status())) return;
    algo.wall_s.push_back(wall);
    if (tracer.enabled()) {
      CountStorage(span, StorageCounters::Take(env) - before);
      CountAllocation(span, result.value());
    }
  }
  const AllocationResult& r = result.value();
  algo.bytes.push_back(static_cast<double>(DirectoryBytes(dir.path())));

  // Parallel Transitive shares one small pool between its workers, so its
  // iteration-phase eviction order (and demand I/O) depends on scheduling;
  // the serial-reference check in RunAllocate bounds it. Everything else
  // repeats exactly.
  const bool parallel = options.num_threads > 1;
  int64_t ios = parallel ? r.prep_io.total() : DemandIos(r);
  uint64_t digest = Take(EdbDigest(env, r.edb), "EDB digest");
  if (checks.Inject("alloc.page_ios")) ++ios;
  if (checks.Inject("alloc.digest")) digest ^= 1;
  const std::string name = iolap::AlgorithmName(algo.kind);
  if (algo.page_ios < 0) {
    algo.page_ios = ios;
    algo.digest = digest;
  } else {
    checks.Expect(ios == algo.page_ios,
                  name + (parallel ? ": prep-phase" : ":") +
                      " demand page I/Os differ across repeats");
    checks.Expect(digest == algo.digest,
                  name + ": EDB digest differs across repeats");
  }
  if (parallel) {
    algo.parallel_ios.push_back(
        static_cast<double>(r.alloc_io.total() + r.emit_io.total()));
  }
  CheckWeights(env, r, cfg.facts, name.c_str(), checks);
}

/// The serial Transitive schedule: the paper's demand-I/O count, and the
/// reference the parallel runs' EDB must equal byte for byte. Untimed.
/// The parallel runs' iteration+emit I/O is reported against it, not
/// checked: it varies with scheduling and has been seen a few pages above
/// the serial count.
void CheckAgainstSerialTransitive(const RunConfig& cfg,
                                  const iolap::StarSchema& schema,
                                  const AlgoRuns& parallel, Checks& checks,
                                  int64_t* serial_ios,
                                  double* max_parallel_excess) {
  WorkDir dir(cfg.work_root, "alloc-serial");
  iolap::StorageEnv env(dir.path(), kBufferPages);
  iolap::TypedFile<iolap::FactRecord> facts =
      Take(iolap::GenerateFacts(
               env, schema, iolap::AutomotiveLikeSpec(cfg.facts, cfg.seed)),
           "GenerateFacts");
  iolap::AllocationOptions options = Options(AlgorithmKind::kTransitive);
  options.num_threads = 1;
  const AllocationResult r =
      Take(iolap::Allocator::Run(env, schema, &facts, options),
           "serial Transitive");
  *serial_ios = DemandIos(r);
  uint64_t digest = Take(EdbDigest(env, r.edb), "EDB digest");
  if (checks.Inject("alloc.serial_digest")) digest ^= 1;
  checks.Expect(digest == parallel.digest,
                "Transitive: parallel EDB differs from the serial EDB");
  const bool was_parallel = !parallel.parallel_ios.empty();
  checks.Expect(
      (was_parallel ? r.prep_io.total() : *serial_ios) == parallel.page_ios,
      "Transitive: demand I/O differs from the serial schedule");
  const double serial_tail =
      static_cast<double>(r.alloc_io.total() + r.emit_io.total());
  *max_parallel_excess = 0;
  for (double ios : parallel.parallel_ios) {
    *max_parallel_excess = std::max(*max_parallel_excess, ios - serial_tail);
  }
}

void ReportPerLayer(const Tracer& tracer, Report& report) {
  report.Metric("datagen.generate_s",
                Median(SpanSeconds(tracer, "datagen.GenerateFacts")), "s");
  ReportAllocation(tracer, "alloc.Run.transitive", "alloc.transitive.",
                   report);
  ReportAllocation(tracer, "alloc.Run.block", "alloc.block.", report);
  StorageCounters total = SumStorage(tracer, "alloc.Run.transitive");
  total += SumStorage(tracer, "alloc.Run.block");
  const size_t runs = SpanSeconds(tracer, "alloc.Run.transitive").size() +
                      SpanSeconds(tracer, "alloc.Run.block").size();
  ReportPool(total, static_cast<double>(runs), report);
}

}  // namespace

void RunAllocate(const RunConfig& cfg, Tracer& tracer, Report& report,
                 Checks& checks, OpCounter& ops) {
  const iolap::StarSchema schema =
      Take(iolap::MakeAutomotiveSchema(), "automotive schema");
  AlgoRuns runs[2] = {
      {.kind = AlgorithmKind::kTransitive, .span = "alloc.Run.transitive"},
      {.kind = AlgorithmKind::kBlock, .span = "alloc.Run.block"}};
  std::vector<double> generate_s;

  // Set-up is generating the fact table; a few extra samples steady it.
  for (int i = 0; i < kExtraGenerates; ++i) {
    tracer.BeginOp();
    WorkDir dir(cfg.work_root, "alloc-gen");
    iolap::StorageEnv env(dir.path(), kBufferPages);
    SpanScope span(tracer, "datagen.GenerateFacts");
    const double t0 = NowSeconds();
    CheckOk(iolap::GenerateFacts(
                env, schema, iolap::AutomotiveLikeSpec(cfg.facts, cfg.seed))
                .status(),
            "GenerateFacts");
    generate_s.push_back(NowSeconds() - t0);
  }

  // Every repeat runs both algorithms; the checks need two repeats. Memory
  // is the first repeat's peak: resident memory creeps up over later
  // repeats (by about 2.5 MiB every few, not returned by malloc_trim), so
  // their peaks would depend on how many repeats a run fits.
  double repeat_rss = -1;
  TimedLoop loop(tracer, cfg.seconds, tracer.enabled() ? 1 : 2);
  while (loop.Continue()) {
    const bool measure_rss = repeat_rss < 0 && ResetPeakRss();
    for (AlgoRuns& algo : runs) {
      const size_t before = algo.wall_s.size();
      RunOnce(cfg, schema, algo, tracer, checks, ops, generate_s);
      if (algo.wall_s.size() > before) loop.Record(algo.wall_s.back());
    }
    if (measure_rss) repeat_rss = PeakRssMiB();
  }
  const bool traced = tracer.enabled();

  int64_t serial_transitive_ios = 0;
  double max_parallel_excess = 0;
  if (!runs[0].wall_s.empty()) {
    CheckAgainstSerialTransitive(cfg, schema, runs[0], checks,
                                 &serial_transitive_ios, &max_parallel_excess);
  }

  report.Detail("repeats", static_cast<double>(loop.iterations()));
  report.Detail("buffer_pages", static_cast<double>(kBufferPages));
  report.Detail("transitive_serial_page_ios",
                static_cast<double>(serial_transitive_ios));
  report.Detail("transitive_parallel_iter_emit_page_ios_p50",
                Median(runs[0].parallel_ios));
  report.Detail("transitive_parallel_io_over_serial_max", max_parallel_excess);
  report.Detail("block_page_ios", static_cast<double>(runs[1].page_ios));
  for (const AlgoRuns& algo : runs) {
    const LatencySummary s = Summarize(algo.wall_s);
    const std::string name = algo.kind == AlgorithmKind::kTransitive
                                 ? "transitive"
                                 : "block";
    report.Detail(name + "_runs", static_cast<double>(s.n));
    report.Detail(name + "_p50_s", s.p50);
  }

  if (traced) {
    ReportPerLayer(tracer, report);
    report.Metric("trace.overhead_frac", loop.overhead_frac(), "ratio");
    return;
  }
  std::vector<double> bytes;
  for (const AlgoRuns& algo : runs) {
    bytes.insert(bytes.end(), algo.bytes.begin(), algo.bytes.end());
  }
  report.Metric("setup_s", Median(generate_s), "s");
  report.Metric("peak_rss_mb",
                repeat_rss < 0 ? PeakRssMiB() : repeat_rss, "MiB");
  report.Metric("op_a_p50_ms", Median(runs[0].wall_s) * 1e3, "ms");
  report.Metric("op_b_p50_ms", Median(runs[1].wall_s) * 1e3, "ms");
  report.Metric("ops_per_s", loop.ops_per_s(), "1/s");
  report.Metric("disk_bytes_per_fact",
                Median(bytes) / static_cast<double>(cfg.facts), "B/fact");
  report.Metric("alloc_page_ios",
                static_cast<double>(serial_transitive_ios + runs[1].page_ios),
                "count");
}

}  // namespace perfbench
