#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

// The three workloads. Each sets itself up from cfg.seed, measures for
// cfg.seconds, checks its answers into `checks`, counts its ops into `ops`,
// and fills `report`: the end-to-end metrics when cfg.trace is false, the
// per-layer metrics (derived from `tracer`'s spans) when it is true.

#include "common.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

void RunAllocate(const RunConfig& cfg, Tracer& tracer, Report& report,
                 Checks& checks, OpCounter& ops);
void RunScan(const RunConfig& cfg, Tracer& tracer, Report& report,
             Checks& checks, OpCounter& ops);
void RunServeMixed(const RunConfig& cfg, Tracer& tracer, Report& report,
                   Checks& checks, OpCounter& ops);

/// Worker threads for the parallel paths: the hardware concurrency.
int Threads();

/// Fraction `num / den`, 0 when den == 0.
inline double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
