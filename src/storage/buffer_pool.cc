#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.h"

namespace iolap {

PageGuard::PageGuard(BufferPool* pool, int32_t frame)
    : pool_(pool), frame_(frame) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), frame_(other.frame_) {
  other.pool_ = nullptr;
  other.frame_ = -1;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    other.pool_ = nullptr;
    other.frame_ = -1;
  }
  return *this;
}

std::byte* PageGuard::data() { return pool_->FrameData(frame_); }
const std::byte* PageGuard::data() const { return pool_->FrameData(frame_); }

void PageGuard::MarkDirty() { pool_->SetDirty(frame_); }

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = -1;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity_pages)
    : disk_(disk), capacity_(capacity_pages) {
  occupancy_gauge_ = GlobalGauge("pool.occupancy");
  hits_counter_ = GlobalCounter("pool.hits");
  misses_counter_ = GlobalCounter("pool.misses");
  evictions_counter_ = GlobalCounter("pool.evictions");
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    frames_[i].data = std::make_unique<std::byte[]>(kPageSize);
    free_frames_.push_back(static_cast<int32_t>(capacity_ - 1 - i));
  }
}

BufferPool::~BufferPool() {
  // Drain plan-driven read-ahead first: wait out in-flight async reads
  // (the kernel writes into chunk buffers we own), then destroy the
  // backend without mu_ held — its teardown can deliver completions that
  // re-acquire mu_.
  {
    auto lock = Latch();
    plan_active_ = false;
    while (plan_outstanding_ > 0) plan_cv_.wait(lock);
  }
  async_reader_.reset();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  drain_cv_.notify_all();
  if (prefetcher_.joinable()) prefetcher_.join();
  // Write back any dirty frames still cached so destruction never silently
  // loses data (see the class-comment destruction contract). Best-effort:
  // a destructor cannot propagate Status, so failures are logged (and
  // assert in debug builds — a lost write here is a caller bug).
  auto lock = Latch();
  for (Frame& frame : frames_) {
    if (frame.file == kInvalidFileId || !frame.dirty) continue;
    Status flushed = FlushFrame(frame);
    if (!flushed.ok()) {
      std::fprintf(stderr,
                   "iolap: ~BufferPool failed to write back dirty page %lld "
                   "of file %d: %s\n",
                   static_cast<long long>(frame.page),
                   static_cast<int>(frame.file), flushed.ToString().c_str());
      assert(false && "~BufferPool lost a dirty page");
    }
  }
}

size_t BufferPool::pinned_pages() const {
  auto lock = Latch();
  size_t n = 0;
  for (const Frame& f : frames_) {
    if (f.pin_count > 0) ++n;
  }
  return n;
}

uint64_t BufferPool::FileEpoch(FileId file) const {
  auto it = file_epochs_.find(file);
  return it == file_epochs_.end() ? 0 : it->second;
}

Result<int32_t> BufferPool::FindVictim() {
  if (!free_frames_.empty()) {
    int32_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (!plan_annex_.empty()) {
    // Planned read-ahead frames occupy only frames a serial run would have
    // free, so demand replacement reclaims them before touching the LRU —
    // this keeps the demand-page cache contents, the LRU order, and
    // therefore IoStats::page_reads identical to a serial run.
    int32_t idx = plan_annex_.front();
    plan_annex_.pop_front();
    Frame& frame = frames_[idx];
    frame.planned = false;
    page_table_.erase(Key{frame.file, frame.page});
    ++stats_.evictions;
    if (evictions_counter_ != nullptr) evictions_counter_->Add(1);
    ++stats_.prefetch_wasted;
    ++window_prefetch_wasted_;
    --prefetched_unconsumed_;
    frame.prefetched = false;
    frame.file = kInvalidFileId;
    frame.page = -1;
    return idx;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool of " + std::to_string(capacity_) +
        " pages has every frame pinned");
  }
  int32_t idx = lru_.front();
  lru_.pop_front();
  Frame& frame = frames_[idx];
  frame.in_lru = false;
  IOLAP_RETURN_IF_ERROR(FlushFrame(frame));
  page_table_.erase(Key{frame.file, frame.page});
  ++stats_.evictions;
  if (evictions_counter_ != nullptr) evictions_counter_->Add(1);
  if (frame.prefetched) {
    ++stats_.prefetch_wasted;
    ++window_prefetch_wasted_;
    --prefetched_unconsumed_;
    frame.prefetched = false;
  }
  frame.file = kInvalidFileId;
  frame.page = -1;
  return idx;
}

int32_t BufferPool::FindPrefetchVictim() {
  if (!free_frames_.empty()) {
    int32_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  // Read-ahead must never displace a demand-loaded page (that could inflate
  // the demand miss count the cost model pins). Beyond the free list it
  // recycles at most the coldest frame, and only when that frame is itself
  // a still-unconsumed prefetch — i.e. an abandoned hint that outlived the
  // pool's whole demand working set. Recycling *recent* prefetches instead
  // would let interleaved scan streams thrash each other's read-ahead on a
  // saturated pool, paying a physical read per page yet servicing nearly
  // every demand miss from disk anyway.
  if (lru_.empty() || !frames_[lru_.front()].prefetched) return -1;
  int32_t idx = lru_.front();
  lru_.pop_front();
  Frame& frame = frames_[idx];
  frame.in_lru = false;
  page_table_.erase(Key{frame.file, frame.page});
  ++stats_.evictions;
  if (evictions_counter_ != nullptr) evictions_counter_->Add(1);
  ++stats_.prefetch_wasted;
  ++window_prefetch_wasted_;
  --prefetched_unconsumed_;
  frame.prefetched = false;
  frame.file = kInvalidFileId;
  frame.page = -1;
  return idx;
}

Status BufferPool::FlushFrame(Frame& frame) {
  if (frame.dirty) {
    IOLAP_RETURN_IF_ERROR(
        disk_->WritePage(frame.file, frame.page, frame.data.get()));
    frame.dirty = false;
    ++stats_.dirty_writebacks;
  }
  return Status::Ok();
}

Status BufferPool::FlushFramesBatched(std::vector<int32_t>& frame_indices) {
  std::sort(frame_indices.begin(), frame_indices.end(),
            [this](int32_t a, int32_t b) {
              const Frame& fa = frames_[a];
              const Frame& fb = frames_[b];
              if (fa.file != fb.file) return fa.file < fb.file;
              return fa.page < fb.page;
            });
  std::vector<const std::byte*> pages;
  size_t i = 0;
  while (i < frame_indices.size()) {
    size_t j = i + 1;
    while (j < frame_indices.size() &&
           frames_[frame_indices[j]].file == frames_[frame_indices[i]].file &&
           frames_[frame_indices[j]].page ==
               frames_[frame_indices[j - 1]].page + 1) {
      ++j;
    }
    pages.clear();
    for (size_t k = i; k < j; ++k) {
      pages.push_back(frames_[frame_indices[k]].data.get());
    }
    const Frame& head = frames_[frame_indices[i]];
    IOLAP_RETURN_IF_ERROR(disk_->WritePagesGather(
        head.file, head.page, pages.data(), static_cast<int64_t>(j - i)));
    for (size_t k = i; k < j; ++k) {
      frames_[frame_indices[k]].dirty = false;
    }
    stats_.dirty_writebacks += static_cast<int64_t>(j - i);
    ++stats_.writeback_batches;
    i = j;
  }
  return Status::Ok();
}

PageRun::PageRun(PageRun&& other) noexcept
    : pool_(other.pool_),
      file_(other.file_),
      first_(other.first_),
      count_(other.count_),
      frames_(std::move(other.frames_)),
      current_(std::move(other.current_)),
      current_index_(other.current_index_) {
  other.pool_ = nullptr;
  other.frames_.clear();
  other.current_index_ = -1;
}

PageRun& PageRun::operator=(PageRun&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    file_ = other.file_;
    first_ = other.first_;
    count_ = other.count_;
    frames_ = std::move(other.frames_);
    current_ = std::move(other.current_);
    current_index_ = other.current_index_;
    other.pool_ = nullptr;
    other.frames_.clear();
    other.current_index_ = -1;
  }
  return *this;
}

Result<const std::byte*> PageRun::Page(int64_t i) {
  if (pool_ == nullptr || i < 0 || i >= count_) {
    return Status::OutOfRange("page " + std::to_string(i) +
                              " outside the run");
  }
  if (!frames_.empty()) return pool_->FrameData(frames_[i]);
  if (current_index_ != i) {
    // Drop the previous page before pinning the next, as a single-page
    // sequential reader does, so a degraded run never holds two frames.
    current_.Release();
    current_index_ = -1;
    IOLAP_ASSIGN_OR_RETURN(current_, pool_->Pin(file_, first_ + i));
    current_index_ = i;
  }
  return static_cast<const std::byte*>(current_.data());
}

void PageRun::Release() {
  if (pool_ == nullptr) return;
  if (!frames_.empty()) pool_->UnpinRun(frames_);
  frames_.clear();
  current_.Release();
  current_index_ = -1;
  pool_ = nullptr;
}

Result<PageGuard> BufferPool::Pin(FileId file, PageId page) {
  auto lock = Latch();
  int64_t metric_hits = 0;
  IOLAP_ASSIGN_OR_RETURN(int32_t idx,
                         PinFrameLocked(lock, file, page, &metric_hits));
  if (metric_hits > 0 && hits_counter_ != nullptr) {
    hits_counter_->Add(metric_hits);
  }
  return PageGuard(this, idx);
}

Result<PageRun> BufferPool::PinRun(FileId file, PageId first, int64_t count) {
  PageRun run;
  run.pool_ = this;
  run.file_ = file;
  run.first_ = first;
  run.count_ = std::max<int64_t>(count, 0);
  if (run.count_ == 0) return run;
  auto lock = Latch();
  // Hold the run only while it and every frame already pinned fit in half
  // the pool: the misses inside it then always find an unpinned victim (at
  // most half the frames are pinned), and concurrent single-page readers
  // keep the other half. An active access plan keeps its pin-by-pin
  // consumption cursor, so runs degrade to Pin while one is running.
  const size_t pinned =
      capacity_ - free_frames_.size() - plan_annex_.size() - lru_.size();
  if (plan_active_ ||
      pinned + static_cast<size_t>(run.count_) > capacity_ / 2) {
    return run;
  }
  run.frames_.reserve(static_cast<size_t>(run.count_));
  int64_t metric_hits = 0;
  Status status = Status::Ok();
  for (PageId p = first; p < first + run.count_ && status.ok(); ++p) {
    Result<int32_t> idx = PinFrameLocked(lock, file, p, &metric_hits);
    if (idx.ok()) {
      run.frames_.push_back(idx.value());
    } else {
      status = idx.status();
    }
  }
  if (metric_hits > 0 && hits_counter_ != nullptr) {
    hits_counter_->Add(metric_hits);
  }
  if (!status.ok()) {
    for (int32_t frame : run.frames_) UnpinLocked(frame);
    run.frames_.clear();
    run.pool_ = nullptr;
    return status;
  }
  return run;
}

Result<int32_t> BufferPool::PinFrameLocked(std::unique_lock<std::mutex>& lock,
                                           FileId file, PageId page,
                                           int64_t* metric_hits) {
  const Key key{file, page};
  auto it = page_table_.find(key);
  if (it == page_table_.end() && read_ahead_pages() > 0 &&
      queue_depth_.load(std::memory_order_relaxed) > 0) {
    // The demand stream caught up with a hint the prefetcher hasn't run
    // yet. Claim the request and service it inline — the block transfer
    // still replaces the page-at-a-time reads even when no spare core ever
    // got to it. The lock-free depth check keeps misses off queue_mu_ when
    // the queue is empty (the steady state once gating engages); a stale
    // zero only defers the claim to the worker.
    if (TryServiceQueuedPrefetch(file, page)) {
      it = page_table_.find(key);
    }
  }
  if (it == page_table_.end() && !plan_inflight_pages_.empty() &&
      plan_inflight_pages_.count(key) != 0) {
    // The demand stream overtook an in-flight planned read of this page.
    // Wait for the chunk to resolve instead of issuing a duplicate
    // physical read; the completion handler always resolves the chunk and
    // notifies (on failure the page simply stays absent and the demand
    // read below proceeds).
    do {
      plan_cv_.wait(lock);
    } while (plan_inflight_pages_.count(key) != 0);
    it = page_table_.find(key);
  }
  if (it != page_table_.end()) {
    Frame& frame = frames_[it->second];
    if (frame.prefetched) {
      // First consumption of a read-ahead frame: charge the demand read the
      // serial pipeline would have issued here (see IoStats).
      frame.prefetched = false;
      if (frame.planned) {
        plan_annex_.erase(frame.lru_pos);
        frame.planned = false;
      }
      ++stats_.prefetch_hits;
      ++window_prefetch_hits_;
      --prefetched_unconsumed_;
      disk_->ChargeDemandRead();
    } else {
      ++stats_.hits;
    }
    ++*metric_hits;
    if (frame.in_lru) {
      lru_.erase(frame.lru_pos);
      frame.in_lru = false;
    }
    ++frame.pin_count;
    if (plan_active_ && !plan_sync_) PlanNotifyPinLocked(file, page);
    return it->second;
  }
  auto pending =
      plan_pending_.empty() ? plan_pending_.end() : plan_pending_.find(key);
  if (pending != plan_pending_.end()) {
    // The planned read completed while the pool was full; its bytes are
    // parked in the chunk buffer. Copy them out through the normal victim
    // path (identical replacement decisions to a serial demand read) and
    // charge the demand read — no new physical I/O.
    const uint64_t tag = pending->second.chunk_tag;
    const int64_t offset = pending->second.offset;
    IOLAP_ASSIGN_OR_RETURN(int32_t idx, FindVictim());
    Frame& frame = frames_[idx];
    PlanChunk& chunk = *plan_chunks_.at(tag);
    if (!chunk.page_bufs.empty()) {
      // Synchronous chunk: pages were scatter-read into individual
      // buffers, so adopt the buffer instead of copying it.
      frame.data.swap(chunk.page_bufs[static_cast<size_t>(offset)]);
    } else {
      std::memcpy(frame.data.get(), chunk.data.get() + offset * kPageSize,
                  kPageSize);
    }
    plan_pending_.erase(pending);
    --chunk.pending;
    MaybeFreeChunkLocked(tag);
    ++stats_.prefetch_hits;
    disk_->ChargeDemandRead();
    ++*metric_hits;
    frame.file = file;
    frame.page = page;
    frame.pin_count = 1;
    frame.dirty = false;
    frame.prefetched = false;
    page_table_[key] = idx;
    TouchOccupancyGauge();
    if (plan_active_ && !plan_sync_) PlanNotifyPinLocked(file, page);
    return idx;
  }
  if (plan_active_) {
    // The page is planned but not yet read (synchronous plan mode, or the
    // demand stream outran the async frontier). Pull the whole upcoming
    // chunk in with one batched transfer instead of a single-page demand
    // read.
    const int32_t idx = TryServePlannedChunkLocked(file, page);
    if (idx >= 0) {
      ++*metric_hits;
      // The serve already advanced next_submit; the consume cursor only
      // feeds the async pump.
      if (!plan_sync_) PlanNotifyPinLocked(file, page);
      return idx;
    }
  }
  ++stats_.misses;
  if (misses_counter_ != nullptr) misses_counter_->Add(1);
  IOLAP_ASSIGN_OR_RETURN(int32_t idx, FindVictim());
  Frame& frame = frames_[idx];
  Status read = disk_->ReadPage(file, page, frame.data.get());
  if (!read.ok()) {
    free_frames_.push_back(idx);
    TouchOccupancyGauge();
    return read;
  }
  frame.file = file;
  frame.page = page;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.prefetched = false;
  page_table_[key] = idx;
  TouchOccupancyGauge();
  if (plan_active_ && !plan_sync_) PlanNotifyPinLocked(file, page);
  return idx;
}

Result<PageGuard> BufferPool::PinNew(FileId file, PageId page) {
  auto lock = Latch();
  IOLAP_ASSIGN_OR_RETURN(int64_t size, disk_->SizeInPages(file));
  if (page != size) {
    return Status::InvalidArgument(
        "PinNew page " + std::to_string(page) + " != file size " +
        std::to_string(size));
  }
  if (page_table_.count(Key{file, page}) != 0) {
    return Status::Internal("PinNew page already cached");
  }
  IOLAP_ASSIGN_OR_RETURN(int32_t idx, FindVictim());
  Frame& frame = frames_[idx];
  std::memset(frame.data.get(), 0, kPageSize);
  // Materialize the page on disk immediately so the file grows densely and
  // later reads of it are well-defined even before the first flush.
  Status write = disk_->WritePage(file, page, frame.data.get());
  if (!write.ok()) {
    free_frames_.push_back(idx);
    TouchOccupancyGauge();
    return write;
  }
  frame.file = file;
  frame.page = page;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.prefetched = false;
  page_table_[Key{file, page}] = idx;
  TouchOccupancyGauge();
  return PageGuard(this, idx);
}

void BufferPool::Unpin(int32_t frame_index) {
  auto lock = Latch();
  UnpinLocked(frame_index);
}

void BufferPool::UnpinRun(const std::vector<int32_t>& frames) {
  auto lock = Latch();
  for (int32_t frame : frames) UnpinLocked(frame);
}

void BufferPool::UnpinLocked(int32_t frame_index) {
  Frame& frame = frames_[frame_index];
  if (--frame.pin_count == 0) {
    lru_.push_back(frame_index);
    frame.lru_pos = std::prev(lru_.end());
    frame.in_lru = true;
  }
}

void BufferPool::ConfigureReadAhead(int pages) {
  read_ahead_pages_.store(pages < 0 ? 0 : pages, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (pages <= 0) {
    // Disabling must also purge hints already queued, or the worker keeps
    // issuing physical prefetch reads after the caller turned read-ahead
    // off. (Repeat disables find an empty queue — idempotent.)
    queue_.clear();
    queue_depth_.store(0, std::memory_order_relaxed);
    if (in_service_ == 0) drain_cv_.notify_all();
    return;
  }
  // Re-enables after a disable reuse the worker thread; only the first
  // enable starts it.
  if (!stop_ && !prefetcher_.joinable()) {
    prefetcher_ = std::thread(&BufferPool::PrefetcherLoop, this);
  }
}

void BufferPool::Prefetch(FileId file, PageId first, int64_t count) {
  if (count <= 0 || read_ahead_pages() == 0) return;
  // Fast path: while the effectiveness gate is closed, drop the hint
  // without touching mu_ — a workload whose hints are useless issues
  // thousands of them, and each mutex acquisition contends with demand
  // pins. Every 64th drop falls through to the locked path so the decay
  // bookkeeping (and the gate re-open probe) still advances.
  bool folded_self = false;
  if (gate_closed_.load(std::memory_order_relaxed)) {
    const int64_t n =
        gate_fast_drops_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n % 64 != 0) return;
    // This hint pre-counted itself as a fast-path drop; if the gates turn
    // out to have re-opened it is serviced after all and the count must be
    // undone below.
    folded_self = true;
  }
  uint64_t epoch;
  {
    auto lock = Latch();
    // Fold drops batched by the lock-free fast path into the counters the
    // decay logic below reads.
    const int64_t fast = gate_fast_drops_.exchange(0, std::memory_order_relaxed);
    if (fast > 0) {
      stats_.prefetch_gated += fast;
      gated_since_decay_ += fast;
    }
    // Plan suppression: while an access plan covers this file, heuristic
    // hints for it are redundant — the planner already schedules every
    // page the reader will touch.
    bool gated = plan_active_ && plan_files_.count(file) != 0;
    // Hopeless hints are dropped at the door: with no free frame and no
    // abandoned prefetch to recycle, enqueueing would only buy a worker
    // wake-up that discovers the same thing (read-ahead never displaces
    // demand pages, see FindPrefetchVictim).
    gated = gated || (free_frames_.empty() &&
                      (lru_.empty() || !frames_[lru_.front()].prefetched));
    // Headroom gate: with less than a small threshold of frames read-ahead
    // may legally fill, servicing the hint mostly blocks demand pins on mu_
    // for the duration of a disk read — the regression small pools see.
    if (!gated) {
      const int64_t headroom =
          static_cast<int64_t>(free_frames_.size()) + prefetched_unconsumed_;
      gated = headroom < kPrefetchMinHeadroom;
    }
    // Effectiveness gate: once enough prefetches have been decided
    // (consumed or evicted unused), stop hinting while the rolling hit
    // rate sits under ~25% — below that, the wasted reads' disk traffic
    // and mutex holds cost more than the hidden latency buys (measured
    // break-even on the small-pool allocation benchmark). Only this gate
    // is published to the lock-free fast path: the frame-availability
    // gates above are transient and must be re-checked per hint.
    {
      const int64_t decided = window_prefetch_hits_ + window_prefetch_wasted_;
      const bool ineffective = decided >= kPrefetchGateMinSample &&
                               window_prefetch_hits_ * 4 < decided;
      gate_closed_.store(ineffective, std::memory_order_relaxed);
      gated = gated || ineffective;
    }
    if (gated) {
      ++stats_.prefetch_gated;
      // Decay the window while gated so a changed access pattern can
      // re-open the gate with a fresh probe.
      if (++gated_since_decay_ >= kPrefetchGateDecay) {
        window_prefetch_hits_ /= 2;
        window_prefetch_wasted_ /= 2;
        gated_since_decay_ = 0;
        const int64_t decided =
            window_prefetch_hits_ + window_prefetch_wasted_;
        gate_closed_.store(decided >= kPrefetchGateMinSample &&
                               window_prefetch_hits_ * 4 < decided,
                           std::memory_order_relaxed);
      }
      return;
    }
    if (folded_self) {
      // The fold above (ours or a racing one) counted this hint's own
      // fast-path increment as a gated drop, but the hint is about to be
      // enqueued — undo it so prefetch_gated counts only dropped hints and
      // the decay window does not advance for a serviced one.
      --stats_.prefetch_gated;
      if (gated_since_decay_ > 0) --gated_since_decay_;
    }
    epoch = file_epochs_[file];
  }
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_ || !prefetcher_.joinable()) return;
    queue_.push_back(PrefetchRequest{file, first, count, epoch});
    queue_depth_.store(static_cast<int64_t>(queue_.size()),
                       std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
}

void BufferPool::PrefetcherLoop() {
  std::vector<std::byte> staging;
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] { return stop_ || (!paused_ && !queue_.empty()); });
    if (stop_) break;
    PrefetchRequest req = queue_.front();
    queue_.pop_front();
    queue_depth_.store(static_cast<int64_t>(queue_.size()),
                       std::memory_order_relaxed);
    ++in_service_;
    lock.unlock();
    ServicePrefetch(req, &staging);
    lock.lock();
    --in_service_;
    if (queue_.empty() && in_service_ == 0) drain_cv_.notify_all();
  }
}

void BufferPool::ServicePrefetch(const PrefetchRequest& req,
                                 std::vector<std::byte>* staging) {
  auto lock = Latch();
  ServicePrefetchLocked(req, staging);
}

bool BufferPool::TryServiceQueuedPrefetch(FileId file, PageId page) {
  PrefetchRequest req;
  bool found = false;
  {
    std::lock_guard<std::mutex> qlock(queue_mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->file == file && it->first <= page &&
          page < it->first + it->count) {
        req = *it;
        queue_.erase(it);
        queue_depth_.store(static_cast<int64_t>(queue_.size()),
                           std::memory_order_relaxed);
        found = true;
        break;
      }
    }
  }
  if (!found) return false;
  // Only the not-yet-demanded tail of the hint is still interesting.
  req.count = req.first + req.count - page;
  req.first = page;
  std::vector<std::byte> staging;
  ServicePrefetchLocked(req, &staging);
  return true;
}

void BufferPool::ServicePrefetchLocked(const PrefetchRequest& req,
                                       std::vector<std::byte>* staging) {
  if (FileEpoch(req.file) != req.epoch) return;  // file was evicted since
  auto size_or = disk_->SizeInPages(req.file);
  if (!size_or.ok()) return;
  PageId end = std::min<PageId>(req.first + req.count, size_or.value());
  PageId p = std::max<PageId>(req.first, 0);
  while (p < end) {
    if (page_table_.count(Key{req.file, p}) != 0) {
      ++p;
      continue;
    }
    PageId run_end = p + 1;
    while (run_end < end && page_table_.count(Key{req.file, run_end}) == 0) {
      ++run_end;
    }
    std::vector<int32_t> victims;
    while (static_cast<PageId>(victims.size()) < run_end - p) {
      int32_t v = FindPrefetchVictim();
      if (v < 0) break;
      victims.push_back(v);
    }
    if (victims.empty()) return;  // no room without displacing demand pages
    int64_t n = static_cast<int64_t>(victims.size());
    staging->resize(static_cast<size_t>(n) * kPageSize);
    if (!disk_->ReadPages(req.file, p, n, staging->data(), /*prefetch=*/true)
             .ok()) {
      // Fire-and-forget: drop the hint; a real fault resurfaces on demand.
      for (int32_t v : victims) free_frames_.push_back(v);
      return;
    }
    for (int64_t i = 0; i < n; ++i) {
      Frame& frame = frames_[victims[i]];
      std::memcpy(frame.data.get(), staging->data() + i * kPageSize,
                  kPageSize);
      frame.file = req.file;
      frame.page = p + i;
      frame.pin_count = 0;
      frame.dirty = false;
      frame.prefetched = true;
      ++prefetched_unconsumed_;
      lru_.push_back(victims[i]);
      frame.lru_pos = std::prev(lru_.end());
      frame.in_lru = true;
      page_table_[Key{req.file, frame.page}] = victims[i];
    }
    p += n;
  }
  TouchOccupancyGauge();
}

void BufferPool::SetPrefetcherPausedForTest(bool paused) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_ = paused;
  }
  queue_cv_.notify_all();
}

void BufferPool::DrainPrefetches() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  drain_cv_.wait(lock, [&] {
    return stop_ || (queue_.empty() && in_service_ == 0);
  });
}

Status BufferPool::FlushFile(FileId file) {
  auto lock = Latch();
  if (batched_writeback()) {
    std::vector<int32_t> dirty;
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].file == file && frames_[i].dirty) {
        dirty.push_back(static_cast<int32_t>(i));
      }
    }
    return FlushFramesBatched(dirty);
  }
  for (Frame& frame : frames_) {
    if (frame.file == file) IOLAP_RETURN_IF_ERROR(FlushFrame(frame));
  }
  return Status::Ok();
}

Status BufferPool::EvictFile(FileId file) {
  {
    // Cancel queued prefetches first (without mu_; see lock ordering note),
    // then bump the epoch so any request already popped by the worker is
    // dropped at its epoch check.
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [file](const PrefetchRequest& r) {
                                  return r.file == file;
                                }),
                 queue_.end());
    queue_depth_.store(static_cast<int64_t>(queue_.size()),
                       std::memory_order_relaxed);
  }
  auto lock = Latch();
  ++file_epochs_[file];
  DropPlanStateForFileLocked(file);
  for (size_t i = 0; i < frames_.size(); ++i) {
    Frame& frame = frames_[i];
    if (frame.file != file) continue;
    if (frame.pin_count > 0) {
      return Status::FailedPrecondition(
          "EvictFile: page " + std::to_string(frame.page) + " of file " +
          std::to_string(file) + " is pinned");
    }
    IOLAP_RETURN_IF_ERROR(FlushFrame(frame));
    ReleaseFrame(i);
  }
  TouchOccupancyGauge();
  return Status::Ok();
}

void BufferPool::ReleaseFrame(size_t frame_index) {
  Frame& frame = frames_[frame_index];
  page_table_.erase(Key{frame.file, frame.page});
  if (frame.in_lru) {
    lru_.erase(frame.lru_pos);
    frame.in_lru = false;
  }
  if (frame.planned) {
    plan_annex_.erase(frame.lru_pos);
    frame.planned = false;
  }
  if (frame.prefetched) {
    ++stats_.prefetch_wasted;
    ++window_prefetch_wasted_;
    --prefetched_unconsumed_;
    frame.prefetched = false;
  }
  frame.file = kInvalidFileId;
  frame.page = -1;
  free_frames_.push_back(static_cast<int32_t>(frame_index));
}

BufferPool::PlannedAccess::~PlannedAccess() {
  if (pool_ != nullptr) pool_->EndPlannedAccess();
}

BufferPool::PlannedAccess& BufferPool::PlannedAccess::operator=(
    PlannedAccess&& other) noexcept {
  if (this != &other) {
    if (pool_ != nullptr) pool_->EndPlannedAccess();
    pool_ = other.pool_;
    other.pool_ = nullptr;
  }
  return *this;
}

void BufferPool::ConfigurePlanReadAhead(AsyncBackendKind backend,
                                        int in_flight_chunks) {
  std::unique_ptr<AsyncReader> retired;
  {
    auto lock = Latch();
    plan_requested_ = backend;
    const AsyncBackendKind resolved = ResolveAsyncBackend(backend);
    if (resolved != plan_backend_) retired = std::move(async_reader_);
    plan_backend_ = resolved;
    plan_in_flight_ = std::max(1, in_flight_chunks);
    // kAuto on a single-hardware-thread host: drive plans synchronously
    // from the pin path (see plan_sync_ in the header). An explicit
    // backend request or env override keeps the async machinery so tests
    // and CI can force it anywhere.
    plan_sync_ = backend == AsyncBackendKind::kAuto &&
                 resolved != AsyncBackendKind::kOff &&
                 std::getenv("IOLAP_IO_BACKEND") == nullptr &&
                 std::thread::hardware_concurrency() <= 1;
    if (plan_sync_ && async_reader_ != nullptr) {
      retired = std::move(async_reader_);
    }
  }
  // `retired` is destroyed here, without mu_ held: backend teardown can
  // deliver completions, which re-acquire mu_ (see lock-ordering note in
  // the header).
}

BufferPool::PlannedAccess BufferPool::BeginPlannedAccess(
    const AccessPlan& plan) {
  if (plan.empty()) return PlannedAccess();
  auto lock = Latch();
  if (plan_backend_ == AsyncBackendKind::kOff || plan_active_) {
    return PlannedAccess();
  }
  if (async_reader_ == nullptr && !plan_sync_) {
    auto completion = [this](uint64_t tag, bool ok) {
      PlanReadComplete(tag, ok);
    };
    async_reader_ = CreateAsyncReader(plan_backend_, disk_, completion);
    if (async_reader_ == nullptr &&
        plan_backend_ == AsyncBackendKind::kUring) {
      // Ring setup failed despite a positive probe; fall back quietly.
      plan_backend_ = AsyncBackendKind::kPread;
      async_reader_ = CreateAsyncReader(plan_backend_, disk_, completion);
    }
    if (async_reader_ == nullptr) {
      plan_backend_ = AsyncBackendKind::kOff;
      return PlannedAccess();
    }
  }
  plan_streams_.clear();
  plan_files_.clear();
  for (const PlanStream& s : plan.streams) {
    auto size_or = disk_->SizeInPages(s.file);
    if (!size_or.ok()) continue;
    const PageId first = std::max<PageId>(s.first, 0);
    const PageId end = std::min<PageId>(s.end, size_or.value());
    if (end <= first) continue;
    plan_streams_.push_back(PlanStreamState{s.file, first, first, end, first});
    plan_files_.insert(s.file);
  }
  if (plan_streams_.empty()) return PlannedAccess();
  plan_next_stream_ = 0;
  plan_active_ = true;
  PumpPlanLocked();
  return PlannedAccess(this);
}

void BufferPool::EndPlannedAccess() {
  auto lock = Latch();
  plan_active_ = false;  // stops further pumps; completions still resolve
  while (plan_outstanding_ > 0) plan_cv_.wait(lock);
  // Pages still parked in chunk buffers were physically read but never
  // demanded: wasted read-ahead.
  stats_.prefetch_wasted += static_cast<int64_t>(plan_pending_.size());
  plan_pending_.clear();
  plan_chunks_.clear();
  plan_inflight_pages_.clear();
  plan_streams_.clear();
  plan_files_.clear();
  // Annex frames stay installed: still-valid cache, reclaimed by demand
  // eviction before any LRU frame (see FindVictim).
}

void BufferPool::PumpPlanLocked() {
  if (!plan_active_ || async_reader_ == nullptr) return;
  const int64_t chunk_pages = std::max(read_ahead_pages(), 1);
  // Every stream must be able to keep at least one chunk in flight: a
  // pass drives one cell stream plus one stream per open segment, all
  // advancing together, and a global cap smaller than the stream count
  // starves each stream in turn — the scan then catches the read
  // frontier and blocks on every chunk.
  const int64_t in_flight_cap = std::max<int64_t>(
      plan_in_flight_, static_cast<int64_t>(plan_streams_.size()));
  size_t exhausted = 0;
  while (plan_outstanding_ < in_flight_cap &&
         exhausted < plan_streams_.size()) {
    PlanStreamState& s =
        plan_streams_[plan_next_stream_ % plan_streams_.size()];
    ++plan_next_stream_;
    // Submit at most `plan_in_flight_` chunks past the consumer: enough
    // depth that steady-state consumption never drains the frontier,
    // while bounding staged-but-unconsumed chunk memory per stream.
    const PageId limit = std::min<PageId>(
        s.end,
        s.consume_pos + static_cast<PageId>(std::max(plan_in_flight_, 2)) *
                            chunk_pages);
    PageId p = s.next_submit;
    while (p < limit) {
      const Key k{s.file, p};
      if (page_table_.count(k) == 0 && plan_inflight_pages_.count(k) == 0 &&
          plan_pending_.count(k) == 0) {
        break;
      }
      ++p;
    }
    s.next_submit = p;
    if (p >= limit) {
      ++exhausted;
      continue;
    }
    exhausted = 0;
    PageId run_end = p + 1;
    while (run_end < limit && run_end - p < chunk_pages) {
      const Key k{s.file, run_end};
      if (page_table_.count(k) != 0 || plan_inflight_pages_.count(k) != 0 ||
          plan_pending_.count(k) != 0) {
        break;
      }
      ++run_end;
    }
    const int64_t n = run_end - p;
    auto chunk = std::make_unique<PlanChunk>();
    chunk->file = s.file;
    chunk->first = p;
    chunk->count = n;
    chunk->epoch = FileEpoch(s.file);
    // Default-initialized (make_unique would memset a buffer the read is
    // about to overwrite — a full extra pass over every planned byte).
    chunk->data = std::unique_ptr<std::byte[]>(
        new std::byte[static_cast<size_t>(n) * kPageSize]);
    const uint64_t tag = plan_next_tag_++;
    AsyncReadRequest req{s.file, p, n, chunk->data.get(), tag};
    for (PageId q = p; q < run_end; ++q) {
      plan_inflight_pages_.insert(Key{s.file, q});
    }
    plan_chunks_[tag] = std::move(chunk);
    ++plan_outstanding_;
    s.next_submit = run_end;
    Status submitted = async_reader_->Submit(req);
    if (!submitted.ok()) {
      // Not accepted — no completion will fire. Roll back and stop
      // planning this stream; its pages fall back to demand reads.
      for (PageId q = p; q < run_end; ++q) {
        plan_inflight_pages_.erase(Key{s.file, q});
      }
      plan_chunks_.erase(tag);
      --plan_outstanding_;
      s.next_submit = s.end;
      s.consume_pos = s.end;
      plan_cv_.notify_all();
    }
  }
}

int32_t BufferPool::TryServePlannedChunkLocked(FileId file, PageId page) {
  if (plan_files_.count(file) == 0) return -1;
  // Synchronous mode owns the whole staging budget the async path would
  // have spread over plan_in_flight_ chunks, so it reads that span in one
  // transfer; the async rescue path keeps single chunks to avoid racing
  // the in-flight frontier.
  const int64_t chunk_pages =
      std::max<int64_t>(read_ahead_pages(), 1) *
      (plan_sync_ ? std::max(plan_in_flight_, 1) : 1);
  for (PlanStreamState& s : plan_streams_) {
    if (s.file != file || page < s.begin || page >= s.end) continue;
    // Extend the chunk forward until it would overlap a page the pool
    // already tracks (cached, in flight, or parked) — those must not be
    // read twice.
    const PageId limit = std::min<PageId>(s.end, page + chunk_pages);
    PageId run_end = page + 1;
    while (run_end < limit) {
      const Key k{file, run_end};
      if (page_table_.count(k) != 0 || plan_inflight_pages_.count(k) != 0 ||
          plan_pending_.count(k) != 0) {
        break;
      }
      ++run_end;
    }
    const int64_t n = run_end - page;
    // Claim the victim frame before touching disk so a full-of-pins pool
    // fails over to the demand path without having moved any bytes.
    auto victim = FindVictim();
    if (!victim.ok()) return -1;
    const int32_t idx = victim.value();
    auto chunk = std::make_unique<PlanChunk>();
    chunk->file = file;
    chunk->first = page;
    chunk->count = n;
    chunk->epoch = FileEpoch(file);
    chunk->resolved = true;
    // Scatter-read into per-page buffers: the demanded page lands in the
    // victim frame directly, parked pages are later served by swapping
    // their buffer into a frame — one copy per page end to end, same as a
    // serial demand read, but one syscall per chunk instead of per page.
    Frame& frame = frames_[idx];
    chunk->page_bufs.reserve(static_cast<size_t>(n));
    std::vector<std::byte*> iov(static_cast<size_t>(n));
    iov[0] = frame.data.get();
    chunk->page_bufs.push_back(nullptr);  // slot 0: read into the frame
    for (int64_t i = 1; i < n; ++i) {
      // Default-initialized (make_unique would memset buffers the read is
      // about to overwrite — a full extra pass over every planned byte).
      chunk->page_bufs.emplace_back(new std::byte[kPageSize]);
      iov[static_cast<size_t>(i)] = chunk->page_bufs.back().get();
    }
    Status read = disk_->ReadPagesScatter(file, page, iov.data(), n,
                                          /*prefetch=*/true);
    if (!read.ok()) {
      // Dropped like a failed prefetch; a real fault resurfaces on the
      // demand read the caller falls back to.
      free_frames_.push_back(idx);
      TouchOccupancyGauge();
      return -1;
    }
    if (n > 1) {
      const uint64_t tag = plan_next_tag_++;
      chunk->pending = n - 1;
      for (int64_t i = 1; i < n; ++i) {
        plan_pending_[Key{file, page + i}] = PendingPage{tag, i};
      }
      plan_chunks_[tag] = std::move(chunk);
    }
    if (run_end > s.next_submit) s.next_submit = run_end;
    // The physical read was prefetch-class; consuming the demanded page
    // charges the demand read the serial pipeline would have issued here.
    ++stats_.prefetch_hits;
    disk_->ChargeDemandRead();
    frame.file = file;
    frame.page = page;
    frame.pin_count = 1;
    frame.dirty = false;
    frame.prefetched = false;
    page_table_[Key{file, page}] = idx;
    TouchOccupancyGauge();
    return idx;
  }
  return -1;
}

void BufferPool::PlanNotifyPinLocked(FileId file, PageId page) {
  if (!plan_active_ || plan_files_.count(file) == 0) return;
  bool advanced = false;
  for (PlanStreamState& s : plan_streams_) {
    if (s.file != file || page < s.begin || page >= s.end) continue;
    if (page + 1 > s.consume_pos) {
      s.consume_pos = page + 1;
      advanced = true;
    }
  }
  if (advanced) PumpPlanLocked();
}

void BufferPool::PlanReadComplete(uint64_t tag, bool ok) {
  auto lock = Latch();
  auto cit = plan_chunks_.find(tag);
  if (cit == plan_chunks_.end()) return;
  PlanChunk& chunk = *cit->second;
  --plan_outstanding_;
  chunk.resolved = true;
  for (PageId q = chunk.first; q < chunk.first + chunk.count; ++q) {
    plan_inflight_pages_.erase(Key{chunk.file, q});
  }
  const bool stale = FileEpoch(chunk.file) != chunk.epoch;
  if (!ok || stale) {
    // A failed read moved no bytes (dropped silently, like a failed
    // heuristic prefetch); a stale one did read — count it wasted.
    if (ok) stats_.prefetch_wasted += chunk.count;
    plan_chunks_.erase(cit);
    plan_cv_.notify_all();
    PumpPlanLocked();
    return;
  }
  for (int64_t i = 0; i < chunk.count; ++i) {
    const Key key{chunk.file, chunk.first + i};
    if (page_table_.count(key) != 0) {
      // A demand read got here first; this planned page is wasted.
      ++stats_.prefetch_wasted;
      continue;
    }
    if (!free_frames_.empty()) {
      // Install into a genuinely free frame, outside the LRU ("annex").
      const int32_t idx = free_frames_.back();
      free_frames_.pop_back();
      Frame& frame = frames_[idx];
      std::memcpy(frame.data.get(), chunk.data.get() + i * kPageSize,
                  kPageSize);
      frame.file = chunk.file;
      frame.page = chunk.first + i;
      frame.pin_count = 0;
      frame.dirty = false;
      frame.prefetched = true;
      frame.planned = true;
      ++prefetched_unconsumed_;
      plan_annex_.push_back(idx);
      frame.lru_pos = std::prev(plan_annex_.end());
      frame.in_lru = false;
      page_table_[key] = idx;
    } else {
      // Pool full: park the page in the chunk buffer until demanded.
      plan_pending_[key] = PendingPage{tag, i};
      ++chunk.pending;
    }
  }
  MaybeFreeChunkLocked(tag);
  TouchOccupancyGauge();
  plan_cv_.notify_all();
  PumpPlanLocked();
}

void BufferPool::DropPlanStateForFileLocked(FileId file) {
  if (plan_files_.count(file) == 0) return;
  for (PlanStreamState& s : plan_streams_) {
    if (s.file == file) {
      s.next_submit = s.end;
      s.consume_pos = s.end;
    }
  }
  for (auto it = plan_pending_.begin(); it != plan_pending_.end();) {
    if (it->first.file != file) {
      ++it;
      continue;
    }
    auto cit = plan_chunks_.find(it->second.chunk_tag);
    if (cit != plan_chunks_.end()) --cit->second->pending;
    ++stats_.prefetch_wasted;
    it = plan_pending_.erase(it);
  }
  for (auto it = plan_chunks_.begin(); it != plan_chunks_.end();) {
    if (it->second->resolved && it->second->pending == 0) {
      it = plan_chunks_.erase(it);
    } else {
      ++it;
    }
  }
  // In-flight chunks of the file die at their epoch check on completion.
}

void BufferPool::MaybeFreeChunkLocked(uint64_t tag) {
  auto it = plan_chunks_.find(tag);
  if (it != plan_chunks_.end() && it->second->resolved &&
      it->second->pending == 0) {
    plan_chunks_.erase(it);
  }
}

Status BufferPool::FlushAll() {
  auto lock = Latch();
  if (batched_writeback()) {
    std::vector<int32_t> dirty;
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].file != kInvalidFileId && frames_[i].dirty) {
        dirty.push_back(static_cast<int32_t>(i));
      }
    }
    return FlushFramesBatched(dirty);
  }
  for (Frame& frame : frames_) {
    if (frame.file != kInvalidFileId) IOLAP_RETURN_IF_ERROR(FlushFrame(frame));
  }
  return Status::Ok();
}

}  // namespace iolap
