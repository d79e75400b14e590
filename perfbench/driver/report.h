#ifndef PERFBENCH_DRIVER_REPORT_H_
#define PERFBENCH_DRIVER_REPORT_H_

// What one run prints: named metrics with units, and free-form details
// (host fingerprint, input sizes, sample counts, tail percentiles).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Report {
 public:
  /// Records metric `name`; a second call with the same name overwrites.
  void Metric(const std::string& name, double value, const std::string& unit);
  void Detail(const std::string& key, double value);
  void Detail(const std::string& key, const std::string& value);

  bool has_metric(const std::string& name) const;

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ResultLine(bool correct, int64_t attempted,
                         int64_t failed) const;
  /// {"details": {...}}
  std::string DetailsLine() const;

 private:
  struct MetricValue {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<MetricValue> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;  // raw JSON
};

/// A double printed with all 17 significant digits (JSON-safe: non-finite
/// values become null).
std::string JsonNumber(double value);

/// Host and build facts every result carries.
void AddFingerprint(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_REPORT_H_
