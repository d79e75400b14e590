#ifndef PERFBENCH_DRIVER_LAYERS_H_
#define PERFBENCH_DRIVER_LAYERS_H_

// Counter snapshots and per-layer metric derivations shared by the
// workloads: what the driver attaches to allocation spans, how pool
// counters become per-op metrics, and the columnar-conversion probe.

#include <string>

#include "alloc/allocator.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

/// Demand page I/Os of all three allocation phases.
int64_t DemandIos(const iolap::AllocationResult& r);

/// Attaches an AllocationResult's phase times, phase I/Os, iteration and
/// component counts to an allocation span.
void CountAllocation(SpanScope& span, const iolap::AllocationResult& r);

/// Reports `prefix`{prep,iter,emit}_s and _page_ios (medians over the
/// spans named `span`), plus the component census for Transitive
/// ("alloc.transitive.") and the iteration figures for Block ("alloc.block.").
void ReportAllocation(const Tracer& tracer, const char* span,
                      const std::string& prefix, Report& report);

/// Reports the pool.* and disk.* metrics from a storage-counter total over
/// `ops` ops (counts become per-op averages).
void ReportPool(const StorageCounters& total, double ops, Report& report);

/// Times WriteColumnarEdb over `edb` (the conversion the serve layer runs)
/// and reports columnar.convert_s, columnar.bytes_per_row and
/// row.bytes_per_row. The converted file is deleted again.
void ReportColumnarConversion(iolap::StorageEnv& env,
                              const iolap::StarSchema& schema,
                              const iolap::TypedFile<iolap::EdbRecord>& edb,
                              Tracer& tracer, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LAYERS_H_
