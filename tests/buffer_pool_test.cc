#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/result.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(MakeTempDir()) {}

  FileId NewFileWithPages(int n) {
    auto file = disk_.CreateFile("t");
    EXPECT_TRUE(file.ok());
    std::byte page[kPageSize];
    for (int i = 0; i < n; ++i) {
      std::memset(page, i, kPageSize);
      EXPECT_TRUE(disk_.WritePage(*file, i, page).ok());
    }
    return *file;
  }

  DiskManager disk_;
};

TEST_F(BufferPoolTest, HitAvoidsDiskRead) {
  FileId f = NewFileWithPages(2);
  BufferPool pool(&disk_, 4);
  disk_.ResetStats();
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    EXPECT_EQ(g.data()[0], std::byte{0});
  }
  EXPECT_EQ(disk_.stats().page_reads, 1);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    (void)g;
  }
  EXPECT_EQ(disk_.stats().page_reads, 1);  // second pin was a hit
  EXPECT_EQ(pool.stats().hits, 1);
  EXPECT_EQ(pool.stats().misses, 1);
}

TEST_F(BufferPoolTest, EvictsLruAndWritesBackDirty) {
  FileId f = NewFileWithPages(3);
  BufferPool pool(&disk_, 2);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    g.data()[0] = std::byte{0xEE};
    g.MarkDirty();
  }
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1));
    (void)g;
  }
  // Pool is full; pinning page 2 must evict page 0 (LRU) and write it back.
  disk_.ResetStats();
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 2));
    (void)g;
  }
  EXPECT_EQ(disk_.stats().page_writes, 1);
  EXPECT_EQ(pool.stats().dirty_writebacks, 1);
  // Re-reading page 0 from disk shows the written-back byte.
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
  EXPECT_EQ(page[0], std::byte{0xEE});
}

TEST_F(BufferPoolTest, AllPinnedExhaustsPool) {
  FileId f = NewFileWithPages(3);
  BufferPool pool(&disk_, 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g0, pool.Pin(f, 0));
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g1, pool.Pin(f, 1));
  Result<PageGuard> g2 = pool.Pin(f, 2);
  EXPECT_FALSE(g2.ok());
  EXPECT_EQ(g2.status().code(), StatusCode::kResourceExhausted);
  g0.Release();
  Result<PageGuard> retry = pool.Pin(f, 2);
  EXPECT_TRUE(retry.ok());
}

TEST_F(BufferPoolTest, PinCountsAreSharedPerPage) {
  FileId f = NewFileWithPages(1);
  BufferPool pool(&disk_, 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard a, pool.Pin(f, 0));
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard b, pool.Pin(f, 0));
  EXPECT_EQ(pool.pinned_pages(), 1u);
  a.Release();
  EXPECT_EQ(pool.pinned_pages(), 1u);
  b.Release();
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST_F(BufferPoolTest, PinNewCreatesZeroedTailPage) {
  IOLAP_ASSERT_OK_AND_ASSIGN(FileId f, disk_.CreateFile("t"));
  BufferPool pool(&disk_, 2);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.PinNew(f, 0));
    for (size_t i = 0; i < kPageSize; i += 512) {
      EXPECT_EQ(g.data()[i], std::byte{0});
    }
    g.data()[5] = std::byte{0x42};
    g.MarkDirty();
  }
  IOLAP_ASSERT_OK(pool.FlushAll());
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
  EXPECT_EQ(page[5], std::byte{0x42});
  // PinNew must target exactly the end of the file.
  EXPECT_FALSE(pool.PinNew(f, 5).ok());
}

TEST_F(BufferPoolTest, EvictFileDropsCleanAndDirtyPages) {
  FileId f = NewFileWithPages(2);
  BufferPool pool(&disk_, 4);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    g.data()[0] = std::byte{0x33};
    g.MarkDirty();
  }
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1));
    (void)g;
  }
  IOLAP_ASSERT_OK(pool.EvictFile(f));
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
  EXPECT_EQ(page[0], std::byte{0x33});
  // All frames free again: next pins are misses.
  pool.ResetStats();
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    (void)g;
  }
  EXPECT_EQ(pool.stats().misses, 1);
}

TEST_F(BufferPoolTest, EvictFileRefusesPinnedPages) {
  FileId f = NewFileWithPages(1);
  BufferPool pool(&disk_, 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
  EXPECT_EQ(pool.EvictFile(f).code(), StatusCode::kFailedPrecondition);
  g.Release();
  IOLAP_EXPECT_OK(pool.EvictFile(f));
}

TEST_F(BufferPoolTest, FlushFileKeepsPagesCached) {
  FileId f = NewFileWithPages(1);
  BufferPool pool(&disk_, 2);
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    g.data()[1] = std::byte{0x77};
    g.MarkDirty();
  }
  IOLAP_ASSERT_OK(pool.FlushFile(f));
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 0, page));
  EXPECT_EQ(page[1], std::byte{0x77});
  pool.ResetStats();
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0));
    (void)g;
  }
  EXPECT_EQ(pool.stats().hits, 1);  // still cached
}

TEST_F(BufferPoolTest, MoveSemanticsOfGuard) {
  FileId f = NewFileWithPages(1);
  BufferPool pool(&disk_, 2);
  IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard a, pool.Pin(f, 0));
  PageGuard b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(pool.pinned_pages(), 1u);
  b.Release();
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST_F(BufferPoolTest, PrefetchChargesDemandReadOnConsumption) {
  FileId f = NewFileWithPages(6);
  BufferPool pool(&disk_, 8);
  pool.ConfigureReadAhead(4);
  disk_.ResetStats();
  pool.Prefetch(f, 0, 4);
  pool.DrainPrefetches();
  // The physical reads are prefetch reads; no demand read happened yet.
  EXPECT_EQ(disk_.stats().prefetch_reads, 4);
  EXPECT_EQ(disk_.stats().page_reads, 0);
  for (PageId p = 0; p < 4; ++p) {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, p));
    EXPECT_EQ(g.data()[0], std::byte{static_cast<unsigned char>(p)});
  }
  // Consumption charges exactly the demand reads the serial pipeline would
  // have issued (the cost-model counter), without new physical traffic.
  EXPECT_EQ(disk_.stats().page_reads, 4);
  EXPECT_EQ(disk_.stats().prefetch_reads, 4);
  EXPECT_EQ(pool.stats().prefetch_hits, 4);
  EXPECT_EQ(pool.stats().prefetch_wasted, 0);
  EXPECT_EQ(pool.stats().misses, 0);
}

TEST_F(BufferPoolTest, PrefetchedPagesAreEvictableByDemand) {
  FileId f = NewFileWithPages(8);
  // Four frames: the smallest pool whose prefetch headroom (free +
  // unconsumed prefetched frames) clears the hint gate's minimum.
  BufferPool pool(&disk_, 4);
  pool.ConfigureReadAhead(2);
  pool.Prefetch(f, 0, 2);
  pool.DrainPrefetches();
  EXPECT_EQ(disk_.stats().prefetch_reads, 2);
  // Prefetched frames are unpinned: after demand pins exhaust the free
  // frames, further pins must succeed by evicting them, and the unconsumed
  // frames count as wasted.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 2)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 3)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 4)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 5)); (void)g; }
  EXPECT_EQ(pool.stats().prefetch_wasted, 2);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
}

TEST_F(BufferPoolTest, EvictFileCancelsOutstandingPrefetches) {
  FileId f = NewFileWithPages(4);
  BufferPool pool(&disk_, 8);
  pool.ConfigureReadAhead(4);
  pool.Prefetch(f, 0, 4);
  IOLAP_ASSERT_OK(pool.EvictFile(f));
  pool.DrainPrefetches();
  // Whatever the prefetcher managed before the eviction, no page of the
  // file may remain cached: the next pin is a demand miss.
  pool.ResetStats();
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  EXPECT_EQ(pool.stats().misses, 1);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
}

TEST_F(BufferPoolTest, PrefetchBacksOffWhenPoolIsSaturated) {
  FileId f = NewFileWithPages(4);
  BufferPool pool(&disk_, 2);
  pool.ConfigureReadAhead(2);
  // Fill the pool with demand pages, then hint: read-ahead must not
  // displace them, so no physical prefetch read may happen.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  disk_.ResetStats();
  pool.Prefetch(f, 2, 2);
  pool.DrainPrefetches();
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
  // The demand pages are still cached.
  pool.ResetStats();
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  EXPECT_EQ(pool.stats().misses, 0);
}

TEST_F(BufferPoolTest, PrefetchIsNoOpWhileUnconfigured) {
  FileId f = NewFileWithPages(2);
  BufferPool pool(&disk_, 4);
  disk_.ResetStats();
  pool.Prefetch(f, 0, 2);
  pool.DrainPrefetches();
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
  EXPECT_EQ(disk_.stats().page_reads, 0);
}

TEST_F(BufferPoolTest, DestructorWritesBackDirtyPages) {
  FileId f = NewFileWithPages(2);
  {
    BufferPool pool(&disk_, 4);
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1));
    g.data()[7] = std::byte{0x5A};
    g.MarkDirty();
    g.Release();
    // No FlushAll/FlushFile: the destructor alone must not lose the write.
  }
  std::byte page[kPageSize];
  IOLAP_ASSERT_OK(disk_.ReadPage(f, 1, page));
  EXPECT_EQ(page[7], std::byte{0x5A});
}

// Close writes every dirty frame back, keeps going past a failed write, and
// returns the first error; the failed page counts as reported, so the
// destructor afterwards has nothing left to lose.
TEST_F(BufferPoolTest, CloseReturnsFirstWriteBackError) {
  FileId f = NewFileWithPages(3);
  {
    BufferPool pool(&disk_, 4);
    for (PageId p = 0; p < 3; ++p) {
      IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, p));
      g.data()[0] = std::byte{0x77};
      g.MarkDirty();
    }
    disk_.SetFaultInjector([](char op, FileId, PageId page) {
      return op == 'w' && page == 1 ? Status::IoError("injected write fault")
                                    : Status::Ok();
    });
    Status closed = pool.Close();
    disk_.SetFaultInjector(nullptr);
    EXPECT_EQ(closed.code(), StatusCode::kIoError);
    IOLAP_EXPECT_OK(pool.Close());  // nothing dirty left
  }
  std::byte page[kPageSize];
  for (PageId p : {0, 2}) {
    IOLAP_ASSERT_OK(disk_.ReadPage(f, p, page));
    EXPECT_EQ(page[0], std::byte{0x77}) << "page " << p;
  }
}

TEST_F(BufferPoolTest, DisablingReadAheadPurgesQueuedHints) {
  FileId f = NewFileWithPages(8);
  BufferPool pool(&disk_, 16);
  pool.ConfigureReadAhead(4);
  // Freeze the worker so the hints stay queued across the disable.
  pool.SetPrefetcherPausedForTest(true);
  disk_.ResetStats();
  pool.Prefetch(f, 0, 4);
  pool.Prefetch(f, 4, 4);
  pool.ConfigureReadAhead(0);  // must purge both queued requests
  pool.SetPrefetcherPausedForTest(false);
  pool.DrainPrefetches();  // returns immediately: nothing left to service
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
  EXPECT_EQ(pool.stats().prefetch_hits, 0);
  // The hinted pages were never loaded: pins are plain demand misses.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  EXPECT_EQ(disk_.stats().page_reads, 1);
  EXPECT_EQ(pool.stats().misses, 1);
  // Enable/disable is idempotent: repeat disables are no-ops and a
  // re-enable reuses the worker.
  pool.ConfigureReadAhead(0);
  pool.ConfigureReadAhead(4);
  pool.ConfigureReadAhead(4);
  pool.Prefetch(f, 4, 4);
  pool.DrainPrefetches();
  EXPECT_EQ(disk_.stats().prefetch_reads, 4);
}

TEST_F(BufferPoolTest, PinClaimsQueuedHintAndServicesOnlyTheTail) {
  FileId f = NewFileWithPages(8);
  BufferPool pool(&disk_, 16);
  pool.ConfigureReadAhead(4);
  // Freeze the worker: the demand Pin below must overtake the queued hint
  // through TryServiceQueuedPrefetch, deterministically.
  pool.SetPrefetcherPausedForTest(true);
  disk_.ResetStats();
  pool.Prefetch(f, 0, 4);
  {
    // Overtaking pin: claims the hint, services only the tail [2, 4) as
    // prefetch reads, and charges exactly one demand read for itself.
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 2));
    EXPECT_EQ(g.data()[0], std::byte{2});
  }
  EXPECT_EQ(disk_.stats().prefetch_reads, 2);  // pages 2 and 3 only
  EXPECT_EQ(disk_.stats().page_reads, 1);
  EXPECT_EQ(pool.stats().prefetch_hits, 1);
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 3)); (void)g; }
  EXPECT_EQ(pool.stats().prefetch_hits, 2);
  EXPECT_EQ(disk_.stats().page_reads, 2);
  // The already-demanded head [0, 2) was dropped from the hint: these are
  // physical demand misses, not prefetch hits.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  EXPECT_EQ(disk_.stats().page_reads, 4);
  EXPECT_EQ(disk_.stats().prefetch_reads, 2);
  EXPECT_EQ(pool.stats().misses, 2);
  pool.SetPrefetcherPausedForTest(false);
}

TEST_F(BufferPoolTest, GateFastPathFoldDoesNotCountServicedHint) {
  // Reaches the every-64th fall-through of the closed-gate fast path at a
  // moment when the gates have re-opened, so the fallen-through hint is
  // enqueued and serviced: prefetch_gated must count only the 63 dropped
  // hints plus the fold batch, not the serviced one.
  FileId a = NewFileWithPages(33);
  auto file_b = disk_.CreateFile("b");
  ASSERT_TRUE(file_b.ok());
  FileId b = *file_b;
  std::byte page[kPageSize];
  for (int i = 0; i < 31; ++i) {
    std::memset(page, i, kPageSize);
    ASSERT_TRUE(disk_.WritePage(b, i, page).ok());
  }
  BufferPool pool(&disk_, 64);
  pool.ConfigureReadAhead(8);
  pool.Prefetch(a, 0, 33);
  pool.Prefetch(b, 0, 31);
  pool.DrainPrefetches();  // all 64 frames hold unconsumed prefetches
  // Evicting A decides 33 prefetches as wasted: the rolling window is now
  // 0 hits / 33 wasted (past the 32-sample floor).
  IOLAP_ASSERT_OK(pool.EvictFile(a));
  // The next locked-path hint evaluates the window and closes the gate.
  pool.Prefetch(a, 0, 1);
  EXPECT_EQ(pool.stats().prefetch_gated, 1);
  // Consuming B's 31 prefetched frames flips the window effective again
  // (31 hits / 33 wasted), but the published gate stays closed until the
  // next locked-path evaluation — exactly the fall-through scenario.
  for (PageId p = 0; p < 31; ++p) {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(b, p));
    (void)g;
  }
  EXPECT_EQ(pool.stats().prefetch_hits, 31);
  const int64_t prefetch_reads_before = disk_.stats().prefetch_reads;
  // 63 hints fast-drop; the 64th falls through, folds the batch, finds the
  // gates open, and is enqueued and serviced.
  for (int i = 0; i < 64; ++i) pool.Prefetch(a, 0, 1);
  pool.DrainPrefetches();
  EXPECT_EQ(disk_.stats().prefetch_reads, prefetch_reads_before + 1);
  // 1 (gate-closing hint) + 63 fast drops. The buggy fold also counted the
  // serviced 64th hint, reporting 65.
  EXPECT_EQ(pool.stats().prefetch_gated, 64);
}

TEST_F(BufferPoolTest, LruOrderIsRecencyBased) {
  FileId f = NewFileWithPages(3);
  BufferPool pool(&disk_, 2);
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  // Touch page 0 again so page 1 becomes LRU.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 2)); (void)g; }
  pool.ResetStats();
  // Page 0 should still be cached, page 1 evicted.
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 0)); (void)g; }
  EXPECT_EQ(pool.stats().hits, 1);
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, 1)); (void)g; }
  EXPECT_EQ(pool.stats().misses, 1);
}

// ---------------------------------------------------------------------------
// Page runs (BufferPool::PinRun).

/// True when every byte sampled from `data` is the fill byte
/// NewFileWithPages wrote for `page`.
bool PageHolds(const std::byte* data, PageId page) {
  const std::byte want{static_cast<unsigned char>(page)};
  return data[0] == want && data[kPageSize / 2] == want &&
         data[kPageSize - 1] == want;
}

TEST_F(BufferPoolTest, RunMatchesPerPagePinsInCountersAndEvictions) {
  FileId f = NewFileWithPages(48);
  struct Outcome {
    PoolStats scan;
    IoStats scan_io;
    std::vector<bool> probe_hits;
  };
  // One pool: pages 0..13 warm with page 15 prefetched among them, then
  // pages [10, 18) scanned as one run or one page at a time (4 hits, one
  // consumed prefetch, three misses of which two evict), then a probe that
  // forces more evictions and records, newest page first, which pins
  // still hit.
  auto drive = [&](bool as_run) {
    Outcome out;
    BufferPool pool(&disk_, 16);
    pool.ConfigureReadAhead(8);
    auto touch = [&](PageId p) {
      auto g = pool.Pin(f, p);
      EXPECT_TRUE(g.ok());
    };
    for (PageId p = 0; p < 10; ++p) touch(p);
    pool.Prefetch(f, 15, 1);
    pool.DrainPrefetches();
    for (PageId p = 10; p < 14; ++p) touch(p);
    const PoolStats before = pool.stats();
    const IoStats io_before = disk_.stats();
    if (as_run) {
      auto run = pool.PinRun(f, 10, 8);
      EXPECT_TRUE(run.ok());
      EXPECT_TRUE(run->held());
      for (int64_t i = 0; i < run->size(); ++i) {
        auto page = run->Page(i);
        EXPECT_TRUE(page.ok());
        EXPECT_TRUE(PageHolds(*page, 10 + i));
      }
    } else {
      for (PageId p = 10; p < 18; ++p) touch(p);
    }
    out.scan = pool.stats() - before;
    out.scan_io = disk_.stats() - io_before;
    for (PageId p = 30; p < 40; ++p) touch(p);
    for (PageId p = 17; p >= 0; --p) {
      const int64_t hits = pool.stats().hits;
      touch(p);
      out.probe_hits.push_back(pool.stats().hits > hits);
    }
    return out;
  };
  const Outcome per_page = drive(false);
  const Outcome run = drive(true);
  EXPECT_EQ(run.scan.hits, 4);
  EXPECT_EQ(run.scan.prefetch_hits, 1);
  EXPECT_EQ(run.scan.misses, 3);
  EXPECT_EQ(run.scan.evictions, 2);
  EXPECT_EQ(run.scan.hits, per_page.scan.hits);
  EXPECT_EQ(run.scan.misses, per_page.scan.misses);
  EXPECT_EQ(run.scan.prefetch_hits, per_page.scan.prefetch_hits);
  EXPECT_EQ(run.scan.prefetch_wasted, per_page.scan.prefetch_wasted);
  EXPECT_EQ(run.scan.evictions, per_page.scan.evictions);
  EXPECT_EQ(run.scan_io, per_page.scan_io);
  // Same LRU afterwards: the probe's evictions pick the same victims.
  EXPECT_EQ(run.probe_hits, per_page.probe_hits);
  // The run released its pages in ascending order, so the probe's ten new
  // pages evicted warm pages 2..9 and then run pages 10 and 11: pages
  // 17..12 still hit.
  const std::vector<bool> want = {true,  true,  true,  true,  true,  true,
                                  false, false, false, false, false, false,
                                  false, false, false, false, false, false};
  EXPECT_EQ(run.probe_hits, want);
}

TEST_F(BufferPoolTest, RunChargesPrefetchedFrameOneDemandRead) {
  FileId f = NewFileWithPages(8);
  BufferPool pool(&disk_, 32);
  pool.ConfigureReadAhead(8);
  pool.Prefetch(f, 2, 2);
  pool.DrainPrefetches();
  disk_.ResetStats();
  for (int pass = 0; pass < 2; ++pass) {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageRun run, pool.PinRun(f, 0, 8));
    ASSERT_TRUE(run.held());
    for (int64_t i = 0; i < run.size(); ++i) {
      IOLAP_ASSERT_OK_AND_ASSIGN(const std::byte* page, run.Page(i));
      EXPECT_TRUE(PageHolds(page, i));
    }
  }
  // Pass 1: six misses plus the two prefetched frames, each charged once
  // as a demand read. Pass 2: eight hits, no new charge.
  EXPECT_EQ(disk_.stats().page_reads, 8);
  EXPECT_EQ(disk_.stats().prefetch_reads, 0);
  EXPECT_EQ(pool.stats().prefetch_hits, 2);
  EXPECT_EQ(pool.stats().misses, 6);
  EXPECT_EQ(pool.stats().hits, 8);
}

TEST_F(BufferPoolTest, RunTakesTwoLatchAcquisitions) {
  FileId f = NewFileWithPages(8);
  BufferPool pool(&disk_, 32);
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageRun run, pool.PinRun(f, 0, 8)); }
  // Warm: pin + release of the run, plus the second stats() snapshot.
  int64_t before = pool.stats().latch_acquisitions;
  { IOLAP_ASSERT_OK_AND_ASSIGN(PageRun run, pool.PinRun(f, 0, 8)); }
  EXPECT_EQ(pool.stats().latch_acquisitions - before, 3);
  // One page at a time: a pin and an unpin per page.
  before = pool.stats().latch_acquisitions;
  for (PageId p = 0; p < 8; ++p) {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, p));
  }
  EXPECT_EQ(pool.stats().latch_acquisitions - before, 17);
}

TEST_F(BufferPoolTest, RunDegradesWhenPoolCannotHoldIt) {
  FileId f = NewFileWithPages(40);
  BufferPool pool(&disk_, 16);
  // Longer than half the pool: degraded even with every frame free.
  {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageRun run, pool.PinRun(f, 0, 9));
    EXPECT_FALSE(run.held());
    for (int64_t i = 0; i < run.size(); ++i) {
      IOLAP_ASSERT_OK_AND_ASSIGN(const std::byte* page, run.Page(i));
      EXPECT_TRUE(PageHolds(page, i));
      EXPECT_EQ(pool.pinned_pages(), 1u);  // one page at a time
    }
  }
  EXPECT_EQ(pool.pinned_pages(), 0u);
  // 14 of 16 frames pinned elsewhere: a single-page scan still fits in the
  // two free frames, so the run must too.
  std::vector<PageGuard> others;
  for (PageId p = 20; p < 34; ++p) {
    IOLAP_ASSERT_OK_AND_ASSIGN(PageGuard g, pool.Pin(f, p));
    others.push_back(std::move(g));
  }
  IOLAP_ASSERT_OK_AND_ASSIGN(PageRun run, pool.PinRun(f, 0, 4));
  EXPECT_FALSE(run.held());
  for (int64_t i = 0; i < run.size(); ++i) {
    IOLAP_ASSERT_OK_AND_ASSIGN(const std::byte* page, run.Page(i));
    EXPECT_TRUE(PageHolds(page, i));
  }
}

TEST_F(BufferPoolTest, ConcurrentRunsNeverExhaustSmallPool) {
  // Four threads scan 49-page chunks (and shorter runs that fit) through a
  // 16-page pool. A page-at-a-time scan needs one frame per thread, so a
  // run must never fail where that would succeed.
  constexpr int kChunk = 49;
  FileId f = NewFileWithPages(4 * kChunk);
  BufferPool pool(&disk_, 16);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const int64_t run_pages = t == 0 ? kChunk : t;  // 49, 1, 2, 3
      for (int pass = 0; pass < 3; ++pass) {
        for (PageId first = 0; first < 4 * kChunk; first += run_pages) {
          const int64_t n = std::min<int64_t>(run_pages, 4 * kChunk - first);
          auto run = pool.PinRun(f, first, n);
          if (!run.ok()) {
            ++failures;
            continue;
          }
          for (int64_t i = 0; i < n; ++i) {
            auto page = run->Page(i);
            if (!page.ok() || !PageHolds(*page, first + i)) ++failures;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST_F(BufferPoolTest, ConcurrentRunsPinsAndEvictFileRace) {
  // Runs, single-page pins and EvictFile race on one pool (TSan covers
  // this). Readers always see the right bytes; EvictFile of the shared
  // file may only fail because a page is pinned, and EvictFile of a file
  // no other thread pins always succeeds.
  FileId a = NewFileWithPages(48);
  FileId b = NewFileWithPages(8);
  BufferPool pool(&disk_, 64);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const PageId first = (i * 7 + t * 13) % 40;
        auto run = pool.PinRun(a, first, 8);
        if (!run.ok()) {
          ++failures;
          continue;
        }
        for (int64_t k = 0; k < 8; ++k) {
          auto page = run->Page(k);
          if (!page.ok() || !PageHolds(*page, first + k)) ++failures;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 4000; ++i) {
      const PageId p = (i * 11) % 48;
      auto g = pool.Pin(a, p);
      if (!g.ok() || !PageHolds(g->data(), p)) ++failures;
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < 1000; ++i) {
      {
        auto run = pool.PinRun(b, 0, 4);
        if (!run.ok()) {
          ++failures;
        } else {
          for (int64_t k = 0; k < 4; ++k) {
            auto page = run->Page(k);
            if (!page.ok() || !PageHolds(*page, k)) ++failures;
          }
        }
      }
      if (!pool.EvictFile(b).ok()) ++failures;
      const Status shared = pool.EvictFile(a);
      if (!shared.ok() && shared.code() != StatusCode::kFailedPrecondition) {
        ++failures;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

}  // namespace
}  // namespace iolap
