// perfbench_driver: runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload allocate|scan|serve_mixed --seed N
//                    --seconds S --trace 0|1 [--facts N]
//                    [--work-root DIR] [--trace-out FILE] [--inject CHECK]
//
// Output (stdout): a details line (host fingerprint, input sizes, sample
// counts, tails) and then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. Exit status
// is 0 only when every correctness check passed; 2 on a set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg);
  std::fprintf(stderr,
               "usage: perfbench_driver --workload allocate|scan|serve_mixed "
               "--seed N --seconds S --trace 0|1 [--facts N] "
               "[--work-root DIR] [--trace-out FILE] [--inject CHECK]\n");
  std::exit(2);
}

int64_t ParseInt(const std::string& s, const char* flag) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') Usage((std::string("bad ") + flag).c_str());
  return v;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = static_cast<uint64_t>(ParseInt(value, "--seed"));
    } else if (flag == "--seconds") {
      cfg.seconds = static_cast<double>(ParseInt(value, "--seconds"));
    } else if (flag == "--trace") {
      cfg.trace = ParseInt(value, "--trace") != 0;
    } else if (flag == "--facts") {
      cfg.facts = ParseInt(value, "--facts");
    } else if (flag == "--work-root") {
      cfg.work_root = value;
    } else if (flag == "--trace-out") {
      cfg.trace_out = value;
    } else if (flag == "--inject") {
      cfg.inject = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (cfg.seconds <= 0) Usage("--seconds must be positive");
  if (cfg.facts <= 0) Usage("--facts must be positive");
  return cfg;
}

}  // namespace

int Threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunConfig cfg = ParseArgs(argc, argv);
  Report report;
  Tracer tracer(cfg.trace);
  Checks checks(cfg.inject);
  OpCounter ops;

  if (cfg.workload == "allocate") {
    RunAllocate(cfg, tracer, report, checks, ops);
  } else if (cfg.workload == "scan") {
    RunScan(cfg, tracer, report, checks, ops);
  } else if (cfg.workload == "serve_mixed") {
    RunServeMixed(cfg, tracer, report, checks, ops);
  } else {
    Usage(("unknown workload " + cfg.workload).c_str());
  }
  if (!cfg.trace && !report.has_metric("peak_rss_mb")) {
    report.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
  }

  AddFingerprint(report);
  report.Detail("workload", cfg.workload);
  report.Detail("seed", static_cast<double>(cfg.seed));
  report.Detail("seconds", cfg.seconds);
  report.Detail("facts", static_cast<double>(cfg.facts));
  report.Detail("threads", Threads());
  report.Detail("checks", static_cast<double>(checks.checked()));
  report.Detail("failed_ops_frac", ops.failed_fraction());
  for (const std::string& failure : checks.failures()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  if (cfg.trace && !cfg.trace_out.empty()) {
    CheckOk(tracer.Write(cfg.trace_out), "writing spans");
    report.Detail("trace_spans", static_cast<double>(tracer.spans().size()));
  }
  const bool correct = checks.ok() && ops.attempted() > 0;
  std::printf("%s\n%s\n", report.DetailsLine().c_str(),
              report.ResultLine(correct, ops.attempted(), ops.failed()).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
