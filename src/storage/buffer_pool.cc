#include "storage/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
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
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  drain_cv_.notify_all();
  if (prefetcher_.joinable()) prefetcher_.join();
  // Write back any dirty frames still cached so destruction never silently
  // loses data (see the class-comment teardown contract). Best-effort: a
  // destructor cannot propagate Status, so failures are logged (and assert
  // in debug builds — a caller that must see them calls Close()).
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

Status BufferPool::Close() {
  auto lock = Latch();
  Status first = Status::Ok();
  for (Frame& frame : frames_) {
    if (frame.file == kInvalidFileId || !frame.dirty) continue;
    Status flushed = FlushFrame(frame);
    if (!flushed.ok()) {
      // Reported to the caller: the page is lost knowingly, not silently.
      frame.dirty = false;
      if (first.ok()) first = flushed;
    }
  }
  return first;
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
                         PinFrameLocked(file, page, &metric_hits));
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
  // keep the other half.
  const size_t pinned = capacity_ - free_frames_.size() - lru_.size();
  if (pinned + static_cast<size_t>(run.count_) > capacity_ / 2) {
    return run;
  }
  run.frames_.reserve(static_cast<size_t>(run.count_));
  int64_t metric_hits = 0;
  Status status = Status::Ok();
  for (PageId p = first; p < first + run.count_ && status.ok(); ++p) {
    Result<int32_t> idx = PinFrameLocked(file, p, &metric_hits);
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

Result<int32_t> BufferPool::PinFrameLocked(FileId file, PageId page,
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
  if (it != page_table_.end()) {
    Frame& frame = frames_[it->second];
    if (frame.prefetched) {
      // First consumption of a read-ahead frame: charge the demand read the
      // serial pipeline would have issued here (see IoStats).
      frame.prefetched = false;
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
    return it->second;
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
    // Hopeless hints are dropped at the door: with no free frame and no
    // abandoned prefetch to recycle, enqueueing would only buy a worker
    // wake-up that discovers the same thing (read-ahead never displaces
    // demand pages, see FindPrefetchVictim).
    bool gated = free_frames_.empty() &&
                 (lru_.empty() || !frames_[lru_.front()].prefetched);
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
