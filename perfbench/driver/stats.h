#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

// Summary statistics for latency samples and failed-op accounting.

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Nearest-rank index (1-based) of the p-th percentile of n samples:
/// ceil(p / 100 * n), clamped to [1, n]. 0 when n == 0.
int64_t PercentileRank(int64_t n, double p);

/// Samples strictly above the p-th percentile's rank.
int64_t SamplesBeyond(int64_t n, double p);

/// Nearest-rank p-th percentile of `samples` (0 for an empty sample).
double Percentile(std::vector<double> samples, double p);

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// The highest of `candidates` that leaves at least `min_beyond` samples
/// beyond it in a sample of `n`; 0 when none qualifies. A tail percentile
/// is only meaningful when several samples lie past it.
double HighestSupportedPercentile(
    int64_t n, const std::vector<double>& candidates = {90, 99, 99.9},
    int64_t min_beyond = 10);

/// Median plus the highest supported tail percentile of one op class.
struct LatencySummary {
  int64_t n = 0;
  double p50 = 0;
  double tail_pct = 0;  // 0 when the sample supports no tail percentile
  double tail = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// Attempted / failed op accounting. An op whose call returns a non-OK
/// status is attempted and failed; it is never dropped from the count.
class OpCounter {
 public:
  /// Records one op; returns status.ok().
  bool Record(const iolap::Status& status);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  double failed_fraction() const {
    return attempted_ > 0 ? static_cast<double>(failed_) /
                                static_cast<double>(attempted_)
                          : 0;
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
