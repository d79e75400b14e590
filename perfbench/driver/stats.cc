#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t PercentileRank(int64_t n, double p) {
  if (n <= 0) return 0;
  // Integer arithmetic in tenths of a percent, so p90 of 100 samples is
  // rank 90 exactly rather than a rounding error's 91.
  const int64_t tenths = std::llround(p * 10);
  const int64_t rank = (tenths * n + 999) / 1000;
  return std::clamp<int64_t>(rank, 1, n);
}

int64_t SamplesBeyond(int64_t n, double p) {
  return n <= 0 ? 0 : n - PercentileRank(n, p);
}

double Percentile(std::vector<double> samples, double p) {
  const int64_t n = static_cast<int64_t>(samples.size());
  if (n == 0) return 0;
  const int64_t rank = PercentileRank(n, p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

double HighestSupportedPercentile(int64_t n,
                                  const std::vector<double>& candidates,
                                  int64_t min_beyond) {
  double best = 0;
  for (double p : candidates) {
    if (SamplesBeyond(n, p) >= min_beyond) best = std::max(best, p);
  }
  return best;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = static_cast<int64_t>(samples.size());
  s.p50 = Median(samples);
  s.tail_pct = HighestSupportedPercentile(s.n);
  if (s.tail_pct > 0) s.tail = Percentile(samples, s.tail_pct);
  return s;
}

bool OpCounter::Record(const iolap::Status& status) {
  ++attempted_;
  if (status.ok()) return true;
  ++failed_;
  std::fprintf(stderr, "perfbench: op failed: %s\n",
               status.ToString().c_str());
  return false;
}

}  // namespace perfbench
