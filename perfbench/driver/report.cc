#include "report.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <thread>

#include "obs/json_util.h"

namespace perfbench {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (MetricValue& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(MetricValue{name, value, unit});
}

void Report::Detail(const std::string& key, double value) {
  details_.emplace_back(key, JsonNumber(value));
}

void Report::Detail(const std::string& key, const std::string& value) {
  std::string quoted;
  iolap::AppendJsonString(&quoted, value);
  details_.emplace_back(key, quoted);
}

bool Report::has_metric(const std::string& name) const {
  for (const MetricValue& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

std::string Report::ResultLine(bool correct, int64_t attempted,
                               int64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    iolap::AppendJsonString(&out, metrics_[i].name);
    out += ": {\"value\": " + JsonNumber(metrics_[i].value) + ", \"unit\": ";
    iolap::AppendJsonString(&out, metrics_[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

std::string Report::DetailsLine() const {
  std::string out = "{\"details\": {";
  for (size_t i = 0; i < details_.size(); ++i) {
    if (i) out += ", ";
    iolap::AppendJsonString(&out, details_[i].first);
    out += ": " + details_[i].second;
  }
  out += "}}";
  return out;
}

void AddFingerprint(Report& report) {
  report.Detail("nproc",
                static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  report.Detail("hardware_concurrency",
                static_cast<double>(std::thread::hardware_concurrency()));
  report.Detail("build_type", std::string(PERFBENCH_BUILD_TYPE));
#ifdef NDEBUG
  report.Detail("ndebug", std::string("true"));
#else
  report.Detail("ndebug", std::string("false"));
#endif
  report.Detail("compiler", std::string("g++ ") + __VERSION__);
}

}  // namespace perfbench
