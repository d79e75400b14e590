#ifndef IOLAP_STORAGE_BUFFER_POOL_H_
#define IOLAP_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "storage/io_stats.h"

namespace iolap {

class BufferPool;

/// RAII pin on a buffer-pool page. While alive, the frame cannot be evicted
/// and `data()` stays valid. Call `MarkDirty()` after mutating the page so
/// the pool writes it back on eviction/flush. A guard may be moved across
/// threads but must be used by one thread at a time.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, int32_t frame);
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return pool_ != nullptr; }
  std::byte* data();
  const std::byte* data() const;
  void MarkDirty();

  /// Drops the pin early (idempotent).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  int32_t frame_ = -1;
};

/// RAII pin on a run of consecutive pages of one file, from
/// `BufferPool::PinRun`. A *held* run pinned every page under one pool-latch
/// acquisition and unpins them all under one more on release. A *degraded*
/// run (the pool could not spare the frames) pins one page at a time on
/// `Page()`, exactly like a sequential reader of single-page guards.
/// Callers see the same bytes either way. Move-only; used by one thread at
/// a time.
class PageRun {
 public:
  PageRun() = default;
  ~PageRun() { Release(); }

  PageRun(const PageRun&) = delete;
  PageRun& operator=(const PageRun&) = delete;
  PageRun(PageRun&& other) noexcept;
  PageRun& operator=(PageRun&& other) noexcept;

  int64_t size() const { return count_; }
  /// True when every page of the run is pinned (not degraded).
  bool held() const { return !frames_.empty(); }

  /// Bytes of the run's i-th page, 0 <= i < size(). On a held run the
  /// pointer stays valid until Release; on a degraded run only until the
  /// next Page call, which swaps the single pin (and may fail like Pin).
  Result<const std::byte*> Page(int64_t i);

  /// Drops every pin early (idempotent).
  void Release();

 private:
  friend class BufferPool;

  BufferPool* pool_ = nullptr;
  FileId file_ = kInvalidFileId;
  PageId first_ = 0;
  int64_t count_ = 0;
  std::vector<int32_t> frames_;  // held: frame of page first_ + i
  PageGuard current_;            // degraded: the one pinned page
  int64_t current_index_ = -1;   // degraded: which page current_ pins
};

/// Fixed-capacity LRU buffer pool over a DiskManager. This is the memory
/// budget `B` in the paper's cost model: every algorithm accesses table
/// pages exclusively through the pool, so restricting the pool's capacity
/// reproduces the paper's "memory limited to a restricted buffer pool"
/// experimental setup.
///
/// Thread-safety: all frame bookkeeping — pins, unpins, flushes, evictions —
/// is serialized by a single pool mutex, the latch (held across the disk
/// read of a miss, so concurrent misses do not overlap their I/O — the
/// parallel execution layer targets CPU-bound workloads whose pages are pool
/// hits). `Pin` and a PageGuard's release take the latch once per page.
/// Scans that know their page span use `PinRun` instead: one acquisition
/// pins a whole run of consecutive pages and one more unpins it, so a
/// chunked parallel scan takes O(chunks), not O(pages), acquisitions
/// (`PoolStats::latch_acquisitions` counts them). A run keeps the per-page
/// contract of `Pin`: every page is charged as a hit, a consumed prefetch,
/// or a miss (served in ascending page order through the same victim and
/// read path), and releasing the run unpins its pages in ascending order, so
/// the LRU ends exactly as a page-at-a-time pin/unpin of those pages leaves
/// it. A run is held only while it and the frames already pinned fit in
/// half the pool; otherwise it degrades to one-page-at-a-time pins, so it
/// never fails where a single-page scan would succeed. Page *contents* are
/// accessed through PageGuard/PageRun without the latch: a pinned frame is
/// never evicted or re-assigned, and the frame buffers are allocated once
/// in the constructor, so data pointers stay stable. Concurrent readers of
/// one page are safe; writers of one page must be externally serialized.
///
/// Read-ahead: `Prefetch` enqueues a hint serviced by one background
/// prefetcher thread. Prefetched frames enter the pool unpinned (evictable)
/// and are counted as *prefetch* reads; the demand read is charged when a
/// Pin consumes the frame, so `IoStats::page_reads` stays exactly the
/// demand I/O the serial pipeline would issue (what the cost model pins).
/// The prefetcher never evicts a demand-loaded frame: it only fills free
/// frames or replaces still-unconsumed prefetched frames.
///
/// Hints are additionally *gated* so read-ahead backs off when it cannot
/// help: a hint is dropped when the pool's prefetch headroom (free frames
/// plus still-unconsumed prefetched frames) falls below a small threshold,
/// or when the rolling hit rate of recently decided prefetches (consumed
/// vs. evicted unused) drops under ~25% — the measured break-even for a
/// wasted read-ahead's disk traffic and mutex hold. Dropped hints decay
/// the rolling
/// window, so a changed access pattern re-opens the gate with a fresh
/// probe. Gating only suppresses *physical* read-ahead traffic; demand
/// reads (`IoStats::page_reads`) are unaffected.
///
/// Teardown: `Close()` writes back every dirty frame and returns the first
/// error. A pool destroyed without `Close()` stops the prefetcher, then
/// writes back best-effort in its destructor; a failure there is logged to
/// stderr and, in debug builds, asserts, because nobody is left to observe
/// it.
class BufferPool {
 public:
  BufferPool(DiskManager* disk, size_t capacity_pages);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins an existing page, reading it from disk on a miss.
  Result<PageGuard> Pin(FileId file, PageId page);

  /// Pins pages [first, first + count) of `file` as one run under a single
  /// latch acquisition (see the class comment for the accounting and
  /// degradation contract). Fails only where pinning the pages one at a
  /// time would: with an I/O error, or a page past the end of the file.
  Result<PageRun> PinRun(FileId file, PageId first, int64_t count);

  /// Pins a brand-new page at the end of `file` without a disk read. The
  /// frame starts zeroed and dirty; `page` must equal the file's current
  /// size in pages.
  Result<PageGuard> PinNew(FileId file, PageId page);

  /// Hints that pages [first, first + count) of `file` will be read soon.
  /// Fire-and-forget: requests past EOF, already-cached pages, and requests
  /// raced by `EvictFile` are silently dropped. No-op while read-ahead is
  /// unconfigured (`read_ahead_pages() == 0`).
  void Prefetch(FileId file, PageId first, int64_t count);

  /// Sets the read-ahead distance sequential readers should hint (0
  /// disables prefetching). Starts the background prefetcher on first
  /// enable.
  void ConfigureReadAhead(int pages);

  int read_ahead_pages() const {
    return read_ahead_pages_.load(std::memory_order_relaxed);
  }

  /// Toggles coalescing of contiguous dirty pages into vectored writes on
  /// FlushFile/FlushAll (eviction write-back is always per-page).
  void set_batched_writeback(bool on) {
    batched_writeback_.store(on, std::memory_order_relaxed);
  }
  bool batched_writeback() const {
    return batched_writeback_.load(std::memory_order_relaxed);
  }

  /// Writes back all dirty pages of `file` (keeps them cached).
  Status FlushFile(FileId file);

  /// Writes back and drops every cached page of `file`, cancelling any
  /// outstanding prefetches for it. Required before accessing the file
  /// through a different channel (e.g. external sort).
  Status EvictFile(FileId file);

  /// Flushes every dirty page in the pool.
  Status FlushAll();

  /// Writes back every dirty frame and returns the first error (later
  /// frames are still attempted). A frame whose write fails is reported
  /// here and marked clean, so the destructor does not report it again.
  /// Call it last, when the pool's files must be durable.
  Status Close();

  /// Blocks until every prefetch enqueued so far has been serviced or
  /// dropped. Test-only determinism hook.
  void DrainPrefetches();

  /// Test-only determinism hook: freezes/unfreezes the background
  /// prefetcher so tests can stage queue contents without racing the
  /// worker. Queued hints stay queued while paused; Pin's inline claim
  /// path (`TryServiceQueuedPrefetch`) still runs. Callers must unpause
  /// (or purge via `ConfigureReadAhead(0)`) before `DrainPrefetches`.
  void SetPrefetcherPausedForTest(bool paused);

  size_t capacity_pages() const { return capacity_; }
  size_t pinned_pages() const;
  /// Race-free snapshot of the pool counters. Drops batched by the
  /// lock-free gate fast path but not yet folded under mu_ are added so
  /// `prefetch_gated` never under-reports. The snapshot's own latch
  /// acquisition is included in `latch_acquisitions`.
  PoolStats stats() const {
    auto lock = Latch();
    PoolStats snapshot = stats_;
    snapshot.prefetch_gated += gate_fast_drops_.load(std::memory_order_relaxed);
    snapshot.latch_acquisitions = latch_acquisitions_;
    return snapshot;
  }
  void ResetStats() {
    auto lock = Latch();
    stats_ = PoolStats{};
    latch_acquisitions_ = 0;
    gate_fast_drops_.store(0, std::memory_order_relaxed);
  }
  DiskManager* disk() const { return disk_; }

 private:
  friend class PageGuard;
  friend class PageRun;

  /// Minimum prefetch headroom (free + unconsumed prefetched frames) for a
  /// hint to be worth enqueueing.
  static constexpr int64_t kPrefetchMinHeadroom = 4;
  /// Decided prefetches (consumed or evicted unused) required before the
  /// hit-rate gate may engage.
  static constexpr int64_t kPrefetchGateMinSample = 32;
  /// Dropped hints between decays of the rolling hit-rate window. Each
  /// decay halves the window; once it shrinks under the sample floor the
  /// gate re-opens for a short probe, so this sets the probe duty cycle —
  /// large enough that a persistently useless pattern pays almost nothing.
  static constexpr int64_t kPrefetchGateDecay = 1024;

  struct Frame {
    FileId file = kInvalidFileId;
    PageId page = -1;
    int32_t pin_count = 0;
    bool dirty = false;
    bool prefetched = false;  // loaded by read-ahead, not yet consumed
    std::list<int32_t>::iterator lru_pos;  // valid iff in_lru
    bool in_lru = false;
    std::unique_ptr<std::byte[]> data;
  };

  struct Key {
    FileId file;
    PageId page;
    bool operator==(const Key& o) const {
      return file == o.file && page == o.page;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<int64_t>()((static_cast<int64_t>(k.file) << 48) ^
                                  k.page);
    }
  };

  struct PrefetchRequest {
    FileId file = kInvalidFileId;
    PageId first = 0;
    int64_t count = 0;
    uint64_t epoch = 0;  // file epoch at enqueue; stale requests are dropped
  };

  /// Acquires mu_ and counts the acquisition. Every latch acquisition goes
  /// through here.
  std::unique_lock<std::mutex> Latch() const {
    std::unique_lock<std::mutex> lock(mu_);
    ++latch_acquisitions_;
    return lock;
  }

  // All private helpers below require mu_ to be held by the caller.
  /// Pin's body: pins `page` and returns its frame. Pool-hit metric
  /// increments are added to *metric_hits instead of the counter, so a run
  /// can publish them in one Add.
  Result<int32_t> PinFrameLocked(FileId file, PageId page,
                                 int64_t* metric_hits);
  void UnpinLocked(int32_t frame_index);
  /// Unpins a held run's frames in ascending page order (one latch).
  void UnpinRun(const std::vector<int32_t>& frames);
  Result<int32_t> FindVictim();
  int32_t FindPrefetchVictim();
  Status FlushFrame(Frame& frame);
  Status FlushFramesBatched(std::vector<int32_t>& frame_indices);
  void ReleaseFrame(size_t frame_index);
  uint64_t FileEpoch(FileId file) const;
  void ServicePrefetchLocked(const PrefetchRequest& req,
                             std::vector<std::byte>* staging);
  bool TryServiceQueuedPrefetch(FileId file, PageId page);

  void ServicePrefetch(const PrefetchRequest& req,
                       std::vector<std::byte>* staging);

  void PrefetcherLoop();

  void Unpin(int32_t frame_index);
  void SetDirty(int32_t frame_index) {
    auto lock = Latch();
    frames_[frame_index].dirty = true;
  }
  std::byte* FrameData(int32_t frame_index) {
    // Lock-free: the caller holds a pin, so the frame cannot be
    // re-assigned underneath it, and frame buffers never move.
    return frames_[frame_index].data.get();
  }

  /// Mirrors the frames-in-use count into the installed occupancy gauge.
  /// Requires mu_; a null handle (no registry installed) makes this one
  /// pointer check.
  void TouchOccupancyGauge() {
    if (occupancy_gauge_ != nullptr) {
      occupancy_gauge_->Set(
          static_cast<int64_t>(capacity_ - free_frames_.size()));
    }
  }

  DiskManager* disk_;
  size_t capacity_;
  // Observability handles, resolved once at construction; null when no
  // registry is installed.
  Gauge* occupancy_gauge_ = nullptr;
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Counter* evictions_counter_ = nullptr;
  mutable std::mutex mu_;
  mutable int64_t latch_acquisitions_ = 0;  // under mu_
  std::vector<Frame> frames_;
  std::vector<int32_t> free_frames_;
  std::list<int32_t> lru_;  // front = least recently used, unpinned only
  std::unordered_map<Key, int32_t, KeyHash> page_table_;
  std::unordered_map<FileId, uint64_t> file_epochs_;  // bumped by EvictFile
  PoolStats stats_;
  // Prefetch-gating state (all under mu_): loaded-but-unconsumed read-ahead
  // frames, and the rolling window of decided prefetches.
  int64_t prefetched_unconsumed_ = 0;
  int64_t window_prefetch_hits_ = 0;
  int64_t window_prefetch_wasted_ = 0;
  int64_t gated_since_decay_ = 0;
  /// Published (under mu_) whenever the hit-rate gate's verdict changes, so
  /// Prefetch() can drop hints without touching mu_ while the gate stays
  /// closed — thousands of doomed hints otherwise contend with demand pins
  /// on the hot path. Decay bookkeeping batches via gate_fast_drops_.
  std::atomic<bool> gate_closed_{false};
  std::atomic<int64_t> gate_fast_drops_{0};
  std::atomic<int> read_ahead_pages_{0};
  std::atomic<bool> batched_writeback_{true};

  // Prefetcher state. Lock ordering: mu_ may be held when taking queue_mu_
  // (a Pin miss claiming a queued request), never the reverse — the worker
  // pops under queue_mu_ and releases it before servicing under mu_;
  // enqueuers snapshot the epoch under mu_, release it, then take
  // queue_mu_; EvictFile purges the queue before taking mu_.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::condition_variable drain_cv_;
  std::deque<PrefetchRequest> queue_;
  /// Mirrors queue_.size() (updated under queue_mu_) so the Pin miss path
  /// can skip taking queue_mu_ when no hint could possibly cover the page —
  /// the common case once gating has shut read-ahead down. A stale zero
  /// only delays a claim the worker will service anyway.
  std::atomic<int64_t> queue_depth_{0};
  int64_t in_service_ = 0;  // requests popped but not yet finished
  bool paused_ = false;     // test hook: worker sleeps while set
  bool stop_ = false;
  std::thread prefetcher_;
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_BUFFER_POOL_H_
