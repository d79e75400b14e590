#include "layers.h"

#include "edb/columnar.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

int64_t DemandIos(const iolap::AllocationResult& r) {
  return r.prep_io.total() + r.alloc_io.total() + r.emit_io.total();
}

void CountAllocation(SpanScope& span, const iolap::AllocationResult& r) {
  span.Count("prep_s", r.prep_seconds);
  span.Count("iter_s", r.alloc_seconds);
  span.Count("emit_s", r.emit_seconds);
  span.Count("prep_page_ios", static_cast<double>(r.prep_io.total()));
  span.Count("iter_page_ios", static_cast<double>(r.alloc_io.total()));
  span.Count("emit_page_ios", static_cast<double>(r.emit_io.total()));
  span.Count("iterations", r.iterations);
  span.Count("groups", r.num_groups);
  span.Count("components", static_cast<double>(r.components.num_components));
  span.Count("largest_component",
             static_cast<double>(r.components.largest_component));
  span.Count("large_components",
             static_cast<double>(r.components.num_large_components));
}

void ReportAllocation(const Tracer& tracer, const char* span,
                      const std::string& prefix, Report& report) {
  auto median = [&](const char* key) {
    return Median(CounterValues(tracer, span, key));
  };
  for (const std::string phase : {"prep", "iter", "emit"}) {
    report.Metric(prefix + phase + "_s", median((phase + "_s").c_str()), "s");
    report.Metric(prefix + phase + "_page_ios",
                  median((phase + "_page_ios").c_str()), "count");
  }
  if (prefix == "alloc.transitive.") {
    report.Metric(prefix + "components", median("components"), "count");
    report.Metric(prefix + "largest_component", median("largest_component"),
                  "count");
    report.Metric(prefix + "large_components", median("large_components"),
                  "count");
  } else if (prefix == "alloc.block.") {
    const double iterations = median("iterations");
    report.Metric(prefix + "iterations", iterations, "count");
    report.Metric(prefix + "groups", median("groups"), "count");
    report.Metric(prefix + "s_per_iteration",
                  Ratio(median("iter_s"), iterations), "s");
  }
}

void ReportPool(const StorageCounters& total, double ops, Report& report) {
  const iolap::PoolStats& p = total.pool;
  const double prefetch_reads = static_cast<double>(total.io.prefetch_reads);
  report.Metric("pool.hit_ratio",
                Ratio(static_cast<double>(p.hits),
                      static_cast<double>(total.pins())),
                "ratio");
  report.Metric("pool.evictions", Ratio(p.evictions, ops), "count/op");
  report.Metric("pool.dirty_writebacks", Ratio(p.dirty_writebacks, ops),
                "count/op");
  report.Metric("pool.writeback_batches", Ratio(p.writeback_batches, ops),
                "count/op");
  report.Metric("pool.prefetch_reads", Ratio(prefetch_reads, ops), "count/op");
  report.Metric("pool.prefetch_hits", Ratio(p.prefetch_hits, ops), "count/op");
  report.Metric("pool.prefetch_wasted", Ratio(p.prefetch_wasted, ops),
                "count/op");
  report.Metric("pool.prefetch_useful_ratio",
                Ratio(static_cast<double>(p.prefetch_hits), prefetch_reads),
                "ratio");
  // Physical reads: demand reads not served by a read-ahead frame, plus the
  // read-ahead reads themselves (see storage/io_stats.h).
  report.Metric("disk.physical_reads",
                Ratio(static_cast<double>(total.io.page_reads -
                                          p.prefetch_hits) +
                          prefetch_reads,
                      ops),
                "count/op");
}

void ReportColumnarConversion(iolap::StorageEnv& env,
                              const iolap::StarSchema& schema,
                              const iolap::TypedFile<iolap::EdbRecord>& edb,
                              Tracer& tracer, Report& report) {
  tracer.BeginOp();
  iolap::ColumnarEdb mirror;
  {
    SpanScope span(tracer, "edb.WriteColumnarEdb");
    mirror = Take(iolap::WriteColumnarEdb(env, schema, edb), "columnar convert");
  }
  report.Metric("columnar.convert_s",
                Median(SpanSeconds(tracer, "edb.WriteColumnarEdb")), "s");
  const double rows = static_cast<double>(edb.size());
  const double row_pages = static_cast<double>(
      Take(env.disk().SizeInPages(edb.file_id()), "EDB size"));
  report.Metric("row.bytes_per_row",
                Ratio(row_pages * iolap::kPageSize, rows), "B/row");
  report.Metric("columnar.bytes_per_row",
                Ratio(static_cast<double>(mirror.size_in_pages()) *
                          iolap::kPageSize,
                      rows),
                "B/row");
  CheckOk(env.pool().EvictFile(mirror.file_id()), "evict columnar probe");
  CheckOk(env.disk().DeleteFile(mirror.file_id()), "delete columnar probe");
}

}  // namespace perfbench
