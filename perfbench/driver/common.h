#ifndef PERFBENCH_DRIVER_COMMON_H_
#define PERFBENCH_DRIVER_COMMON_H_

// Shared plumbing of the benchmark driver: run configuration, the dataset
// every workload draws from, per-set-up work directories, correctness
// checks, and the process/disk measurements (RSS, directory bytes).

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "datagen/generator.h"
#include "model/records.h"
#include "storage/paged_file.h"
#include "storage/storage_env.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Facts in the generated dataset; the benchmark's workloads use the
  /// default, tests pass small values.
  int64_t facts = 200'000;
  /// Root under which each set-up gets its own StorageEnv directory.
  std::string work_root = ".bench_work";
  /// Where a traced run writes its spans (empty = do not write).
  std::string trace_out;
  /// Test hook: name of one correctness check to feed a wrong answer.
  std::string inject;
};

/// Monotonic seconds since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A fresh, unique directory under `root` for one StorageEnv. The
/// DiskManager removes its files when the env is destroyed; the directory
/// itself is removed here.
class WorkDir {
 public:
  WorkDir(const std::string& root, const std::string& tag);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Total bytes of the regular files under `path` (recursively).
int64_t DirectoryBytes(const std::string& path);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMiB();

/// Returns free heap pages to the system and restarts the peak-RSS count
/// from the current RSS (Linux /proc/self/clear_refs); false where the
/// kernel does not support it.
bool ResetPeakRss();

/// Order-sensitive FNV-1a digest of every EDB record's bytes.
iolap::Result<uint64_t> EdbDigest(iolap::StorageEnv& env,
                                  const iolap::TypedFile<iolap::EdbRecord>& edb);

/// Reads every fact of `facts` into memory.
iolap::Result<std::vector<iolap::FactRecord>> ReadFacts(
    iolap::StorageEnv& env, const iolap::TypedFile<iolap::FactRecord>& facts);

/// Correctness bookkeeping. A failed check marks the run incorrect; the
/// driver then exits non-zero. `Inject` lets a test feed one named check a
/// deliberately wrong answer.
class Checks {
 public:
  explicit Checks(std::string inject) : inject_(std::move(inject)) {}

  /// True (once) when the run was asked to corrupt check `name`.
  bool Inject(const std::string& name);
  /// True on every call when the run was asked to corrupt check `name`.
  bool Injecting(const std::string& name) const { return inject_ == name; }
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_.empty(); }
  int64_t checked() const { return checked_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::string inject_;
  bool injected_ = false;
  int64_t checked_ = 0;
  std::vector<std::string> failures_;
};

/// Dies with a message on a non-OK status outside the measured op loop
/// (set-up failures are benchmark errors, not failed ops).
void CheckOk(const iolap::Status& status, const char* what);

template <typename T>
T Take(iolap::Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).value();
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_COMMON_H_
