#ifndef IOLAP_STORAGE_IO_STATS_H_
#define IOLAP_STORAGE_IO_STATS_H_

#include <cstdint>
#include <ostream>

namespace iolap {

/// Counters for page-granularity disk traffic. The paper's cost model and
/// all of its theorems are stated in page I/Os, so every experiment reports
/// these alongside wall-clock time.
///
/// Demand vs. prefetch accounting: `page_reads` counts *demand* page reads
/// — pages an algorithm asked for, whether the bytes came straight off disk
/// or out of a read-ahead frame (a pin that consumes a prefetched frame is
/// charged here at consumption time). `prefetch_reads` counts the physical
/// reads the background prefetcher issued. Consumed prefetches therefore
/// appear in both counters — `page_reads` stays exactly what the serial
/// pipeline would have read, which is what Theorems 6/7/10 bound, while
/// physical traffic is `page_reads - <consumed> + prefetch_reads` (the
/// consumed count is `PoolStats::prefetch_hits`).
struct IoStats {
  int64_t page_reads = 0;      // demand reads (theorem-counted)
  int64_t page_writes = 0;
  int64_t prefetch_reads = 0;  // physical read-ahead reads

  /// Demand I/O total — the quantity the paper's cost model predicts.
  int64_t total() const { return page_reads + page_writes; }

  IoStats operator-(const IoStats& other) const {
    return IoStats{page_reads - other.page_reads,
                   page_writes - other.page_writes,
                   prefetch_reads - other.prefetch_reads};
  }
  IoStats& operator+=(const IoStats& other) {
    page_reads += other.page_reads;
    page_writes += other.page_writes;
    prefetch_reads += other.prefetch_reads;
    return *this;
  }
  bool operator==(const IoStats& other) const {
    return page_reads == other.page_reads &&
           page_writes == other.page_writes &&
           prefetch_reads == other.prefetch_reads;
  }
};

inline std::ostream& operator<<(std::ostream& os, const IoStats& s) {
  return os << "{reads=" << s.page_reads << " writes=" << s.page_writes
            << " prefetch=" << s.prefetch_reads << "}";
}

/// Buffer-pool behaviour counters (hits avoid disk traffic entirely).
struct PoolStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t dirty_writebacks = 0;   // dirty pages written back
  int64_t writeback_batches = 0;  // vectored writes that carried them
  int64_t prefetch_hits = 0;      // pins satisfied by a read-ahead frame
  int64_t prefetch_wasted = 0;    // read-ahead frames evicted unused
  int64_t prefetch_gated = 0;     // hints dropped by the pool's gates
  int64_t latch_acquisitions = 0;  // acquisitions of the pool mutex

  PoolStats operator-(const PoolStats& other) const {
    return PoolStats{hits - other.hits,
                     misses - other.misses,
                     evictions - other.evictions,
                     dirty_writebacks - other.dirty_writebacks,
                     writeback_batches - other.writeback_batches,
                     prefetch_hits - other.prefetch_hits,
                     prefetch_wasted - other.prefetch_wasted,
                     prefetch_gated - other.prefetch_gated,
                     latch_acquisitions - other.latch_acquisitions};
  }
};

}  // namespace iolap

#endif  // IOLAP_STORAGE_IO_STATS_H_
