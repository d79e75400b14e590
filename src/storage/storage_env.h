#ifndef IOLAP_STORAGE_STORAGE_ENV_H_
#define IOLAP_STORAGE_STORAGE_ENV_H_

#include <memory>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace iolap {

/// Bundles the disk manager and buffer pool that a whole allocation run
/// shares. `buffer_pages` is the memory budget `B` from the paper's cost
/// model; it bounds both the pool and the external-sort working memory.
class StorageEnv {
 public:
  StorageEnv(std::string directory, size_t buffer_pages)
      : disk_(std::make_unique<DiskManager>(std::move(directory))),
        pool_(std::make_unique<BufferPool>(disk_.get(), buffer_pages)) {}

  DiskManager& disk() { return *disk_; }
  BufferPool& pool() { return *pool_; }
  int64_t buffer_pages() const {
    return static_cast<int64_t>(pool_->capacity_pages());
  }

  /// Writes back the pool's dirty pages and returns the first error (see
  /// BufferPool::Close).
  Status Close() { return pool_->Close(); }

 private:
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_STORAGE_ENV_H_
