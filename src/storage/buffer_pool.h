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
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/access_plan.h"
#include "storage/async_io.h"
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
/// run (the pool could not spare the frames, or an access plan is active)
/// pins one page at a time on `Page()`, exactly like a sequential reader of
/// single-page guards. Callers see the same bytes either way. Move-only;
/// used by one thread at a time.
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
/// half the pool; otherwise, and whenever an access plan is active, it
/// degrades to one-page-at-a-time pins, so it never fails where a
/// single-page scan would succeed. Page *contents* are accessed through
/// PageGuard/PageRun without the latch: a pinned frame is never evicted or
/// re-assigned, and the frame buffers are allocated once in the
/// constructor, so data pointers stay stable. Concurrent readers of one
/// page are safe; writers of one page must be externally serialized.
///
/// Read-ahead: `Prefetch` enqueues a hint serviced by one background
/// prefetcher thread. Prefetched frames enter the pool unpinned (evictable)
/// and are counted as *prefetch* reads; the demand read is charged when a
/// Pin consumes the frame, so `IoStats::page_reads` stays exactly the
/// demand I/O the serial pipeline would issue (what the cost model pins).
/// The prefetcher never evicts a demand-loaded frame: it only fills free
/// frames or replaces still-unconsumed prefetched frames.
///
/// Plan-driven read-ahead: when a reader knows its page schedule exactly
/// (the window engine's cell scan and segment windows), it wraps the scan
/// in `BeginPlannedAccess(plan)`. The pool then drives an async backend
/// (io_uring or a pread pool, `ConfigurePlanReadAhead`) a bounded distance
/// ahead of the consumer, overlapping the next pages' reads with the
/// current pages' compute. Completed planned reads are installed only into
/// *free* frames (an "annex" outside the LRU, reclaimed by demand eviction
/// before any LRU victim) or parked in their chunk buffer until demanded —
/// so the demand-page cache contents, the LRU order, and therefore
/// `IoStats::page_reads` evolve exactly as in a serial run. While a plan is
/// active, heuristic hints for the planned files are suppressed.
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
/// Destruction contract: the destructor stops the prefetcher, then writes
/// back any remaining dirty frames best-effort (failures are logged to
/// stderr and, in debug builds, assert). Callers that must observe flush
/// errors should call FlushAll() themselves before destroying the pool —
/// a destructor cannot report them.
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

  /// RAII handle for one active access plan; ends the plan (draining
  /// in-flight reads) on destruction. Inert when default-constructed or
  /// when the pool declined the plan.
  class PlannedAccess {
   public:
    PlannedAccess() = default;
    ~PlannedAccess();
    PlannedAccess(const PlannedAccess&) = delete;
    PlannedAccess& operator=(const PlannedAccess&) = delete;
    PlannedAccess(PlannedAccess&& other) noexcept : pool_(other.pool_) {
      other.pool_ = nullptr;
    }
    PlannedAccess& operator=(PlannedAccess&& other) noexcept;
    bool active() const { return pool_ != nullptr; }

   private:
    friend class BufferPool;
    explicit PlannedAccess(BufferPool* pool) : pool_(pool) {}
    BufferPool* pool_ = nullptr;
  };

  /// Selects the async backend plan-driven read-ahead runs on and the
  /// bound on concurrently in-flight read chunks. `backend` is resolved
  /// through `ResolveAsyncBackend` (env override, auto-probing); kOff
  /// makes every BeginPlannedAccess inert. Chunk size follows
  /// `read_ahead_pages()`. Call before the first plan; the backend thread
  /// starts lazily at the first accepted plan.
  void ConfigurePlanReadAhead(AsyncBackendKind backend, int in_flight_chunks);

  /// Starts driving `plan` (see the class comment). At most one plan may
  /// be active; a second Begin, an empty plan, or an off/unavailable
  /// backend returns an inert guard and the reader proceeds on demand
  /// reads alone. Streams are clamped to the current file sizes.
  PlannedAccess BeginPlannedAccess(const AccessPlan& plan);

  /// The backend requested by the last ConfigurePlanReadAhead call and
  /// the in-flight bound in effect (kOff and 4 before the first call);
  /// passing them back to ConfigurePlanReadAhead restores the plan mode.
  struct PlanReadAheadConfig {
    AsyncBackendKind backend;
    int in_flight_chunks;
    bool operator==(const PlanReadAheadConfig& o) const {
      return backend == o.backend && in_flight_chunks == o.in_flight_chunks;
    }
  };
  PlanReadAheadConfig plan_read_ahead_config() const {
    auto lock = Latch();
    return {plan_requested_, plan_in_flight_};
  }

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

  /// Blocks until every prefetch enqueued so far has been serviced or
  /// dropped. Test-only determinism hook.
  void DrainPrefetches();

  /// Test-only determinism hook: freezes/unfreezes the background
  /// prefetcher so tests can stage queue contents without racing the
  /// worker. Queued hints stay queued while paused; Pin's inline claim
  /// path (`TryServiceQueuedPrefetch`) still runs. Callers must unpause
  /// (or purge via `ConfigureReadAhead(0)`) before `DrainPrefetches`.
  void SetPrefetcherPausedForTest(bool paused);

  /// True when plan-driven read-ahead is driven synchronously from the pin
  /// path instead of an async backend (see plan_sync_).
  bool plan_sync_mode() const {
    auto lock = Latch();
    return plan_sync_;
  }

  /// Test hook: forces synchronous plan mode (see plan_sync_) regardless of
  /// host parallelism, so the inline chunk-serve path is exercisable on
  /// multi-core machines. Call between ConfigurePlanReadAhead (which
  /// recomputes the mode) and BeginPlannedAccess.
  void SetPlanSyncForTest(bool sync) {
    auto lock = Latch();
    plan_sync_ = sync;
  }

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
    // In plan_annex_ rather than lru_ (lru_pos then indexes the annex):
    // planned frames occupy only frames a serial run would have free, so
    // demand replacement is untouched (see FindVictim).
    bool planned = false;
    std::list<int32_t>::iterator lru_pos;  // valid iff in_lru or planned
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

  /// One in-flight or partially consumed chunk of planned read-ahead. The
  /// buffer outlives the async read; pages that complete with no free
  /// frame stay in it ("pending") until a demand Pin copies them out.
  struct PlanChunk {
    FileId file = kInvalidFileId;
    PageId first = 0;
    int64_t count = 0;
    uint64_t epoch = 0;  // file epoch at submission
    /// Async chunks read into one contiguous buffer (`data`, a single
    /// backend request); synchronous chunks scatter-read into per-page
    /// buffers (`page_bufs`) so a parked page is served by swapping its
    /// buffer into the frame — no second copy. Exactly one is populated.
    std::unique_ptr<std::byte[]> data;
    std::vector<std::unique_ptr<std::byte[]>> page_bufs;
    int64_t pending = 0;   // pages parked in the buffer awaiting a Pin
    bool resolved = false;  // completion processed
  };
  /// Cursor over one PlanStream. next_submit only grows; pages behind
  /// consume_pos are done and never resubmitted.
  struct PlanStreamState {
    FileId file = kInvalidFileId;
    PageId begin = 0;
    PageId next_submit = 0;
    PageId end = 0;
    PageId consume_pos = 0;
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
  Result<int32_t> PinFrameLocked(std::unique_lock<std::mutex>& lock,
                                 FileId file, PageId page,
                                 int64_t* metric_hits);
  void UnpinLocked(int32_t frame_index);
  /// Unpins a held run's frames in ascending page order (one latch).
  void UnpinRun(const std::vector<int32_t>& frames);
  Result<int32_t> FindVictim();
  int32_t FindPrefetchVictim();
  /// Submits read chunks round-robin across plan streams until the
  /// in-flight bound is met or nothing is submittable.
  void PumpPlanLocked();
  /// Serves a demand miss on a planned-but-unread page by reading the
  /// whole upcoming chunk with one batched prefetch-class transfer on the
  /// caller's thread, parking the tail pages for later pins. Returns the
  /// pinned frame index, or -1 when the page is outside every stream or
  /// the read/victim path fails (the caller falls back to a plain demand
  /// read). This is the plan driver in synchronous mode (plan_sync_) and
  /// the rescue path when the demand stream outruns the async frontier.
  int32_t TryServePlannedChunkLocked(FileId file, PageId page);
  /// Advances the plan consumption cursor past `page` and re-pumps.
  void PlanNotifyPinLocked(FileId file, PageId page);
  /// Completion handler for the async backend (locks mu_ itself).
  void PlanReadComplete(uint64_t tag, bool ok);
  /// Tears down the active plan: drains in-flight reads, drops pending
  /// pages as wasted, keeps installed annex frames cached.
  void EndPlannedAccess();
  /// Drops plan state referring to `file` (EvictFile): kills its streams
  /// and discards its pending pages. In-flight chunks die at their epoch
  /// check on completion.
  void DropPlanStateForFileLocked(FileId file);
  /// Releases `chunk`'s buffer once it is resolved and no page is parked.
  void MaybeFreeChunkLocked(uint64_t tag);
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
    // re-assigned underneath it. The buffer address is stable while
    // pinned — it only changes when an unpinned frame adopts a
    // synchronous plan chunk's page buffer, under mu_ (see Pin's
    // pending-serve path).
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
  // ---- Plan-driven read-ahead state (all under mu_; the backend's
  // completion thread re-acquires mu_ through PlanReadComplete). mu_ may
  // be held while calling into the backend's Submit, never the reverse.
  std::unique_ptr<AsyncReader> async_reader_;
  AsyncBackendKind plan_backend_ = AsyncBackendKind::kOff;  // resolved
  AsyncBackendKind plan_requested_ = AsyncBackendKind::kOff;  // unresolved
  /// Drive plans synchronously from the pin path instead of spawning an
  /// async backend. Chosen by ConfigurePlanReadAhead for kAuto on hosts
  /// with a single hardware thread: there a backend thread cannot overlap
  /// anything and every handoff is a context switch, while the batched
  /// chunk read alone (one pread per chunk vs. one per page) already beats
  /// the serial pipeline. An explicit backend request or IOLAP_IO_BACKEND
  /// override forces the async path regardless.
  bool plan_sync_ = false;
  int plan_in_flight_ = 4;     // max chunks submitted but not completed
  bool plan_active_ = false;   // accepting pumps/notifies for a plan
  std::vector<PlanStreamState> plan_streams_;
  size_t plan_next_stream_ = 0;  // round-robin pump position
  int64_t plan_outstanding_ = 0;
  uint64_t plan_next_tag_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<PlanChunk>> plan_chunks_;
  struct PendingPage {
    uint64_t chunk_tag = 0;
    int64_t offset = 0;  // page index within the chunk
  };
  std::unordered_map<Key, PendingPage, KeyHash> plan_pending_;
  std::unordered_set<Key, KeyHash> plan_inflight_pages_;
  std::unordered_set<FileId> plan_files_;
  std::list<int32_t> plan_annex_;  // planned frames, outside the LRU
  /// Signalled whenever an in-flight chunk resolves (installed, parked, or
  /// dropped): demand Pins overtaking the plan wait here, EndPlannedAccess
  /// drains here. Waits use mu_.
  std::condition_variable plan_cv_;
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
