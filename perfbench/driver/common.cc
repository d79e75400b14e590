#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

namespace perfbench {

WorkDir::WorkDir(const std::string& root, const std::string& tag) {
  static int counter = 0;
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  path_ = root + "/" + tag + "-" + std::to_string(::getpid()) + "-" +
          std::to_string(counter++);
  std::filesystem::remove_all(path_, ec);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

int64_t DirectoryBytes(const std::string& path) {
  std::error_code ec;
  int64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(path, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<int64_t>(it->file_size(ec));
    }
  }
  return total;
}

double PeakRssMiB() {
  // VmHWM honours ResetPeakRss; getrusage's maximum never resets.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  // Free heap pages count toward RSS until returned; without this the
  // set-up's freed heap would sit under the measured peak.
  ::malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

iolap::Result<uint64_t> EdbDigest(
    iolap::StorageEnv& env, const iolap::TypedFile<iolap::EdbRecord>& edb) {
  uint64_t h = 1469598103934665603ULL;
  auto cursor = edb.Scan(env.pool());
  iolap::EdbRecord rec;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
    unsigned char bytes[sizeof(rec)];
    std::memcpy(bytes, &rec, sizeof(rec));
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

iolap::Result<std::vector<iolap::FactRecord>> ReadFacts(
    iolap::StorageEnv& env, const iolap::TypedFile<iolap::FactRecord>& facts) {
  std::vector<iolap::FactRecord> out;
  out.reserve(static_cast<size_t>(facts.size()));
  auto cursor = facts.Scan(env.pool());
  iolap::FactRecord f;
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Next(&f));
    out.push_back(f);
  }
  return out;
}

bool Checks::Inject(const std::string& name) {
  if (injected_ || inject_ != name) return false;
  injected_ = true;
  return true;
}

void Checks::Expect(bool ok, const std::string& what) {
  ++checked_;
  if (!ok) failures_.push_back(what);
}

void CheckOk(const iolap::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::fflush(nullptr);
  std::_Exit(2);  // worker threads may still be running; skip destructors
}

}  // namespace perfbench
