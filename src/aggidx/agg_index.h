#ifndef IOLAP_AGGIDX_AGG_INDEX_H_
#define IOLAP_AGGIDX_AGG_INDEX_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "model/records.h"
#include "model/schema.h"
#include "rtree/rtree.h"
#include "storage/paged_file.h"
#include "storage/storage_env.h"

namespace iolap {

class ColumnarEdb;

// ---------------------------------------------------------------------------
// On-disk node layout (see docs/FORMAT.md). One node per 4 KiB page: a
// 16-byte header followed by up to kAggIndexEntriesPerPage packed entries.
// Nodes and entries are sorted by the canonical (dimension-0-major) order of
// their first cell, so every entry covers a contiguous run of the sorted
// occupied-cell sequence.

struct AggIndexNodeHeader {
  int32_t num_entries = 0;
  int32_t level = 0;  // 0 = leaf node (entries are single cells)
  int64_t reserved = 0;
};
static_assert(std::is_trivially_copyable_v<AggIndexNodeHeader>);
static_assert(sizeof(AggIndexNodeHeader) == 16);

/// One index entry: a single occupied cell (leaf, `child == -1`, bbox is a
/// point) or a whole child subtree (internal, bbox is the union of the
/// child's entries). The partials answer all five aggregate functions over
/// the entry's rows: SUM = sum, COUNT = count, AVERAGE = sum / count,
/// MIN/MAX = min/max of the unweighted measure.
struct AggIndexEntry {
  int32_t key[kMaxDims] = {};  // canonical sort key: first cell of the run
  Rect bbox;                   // inclusive leaf box covered
  double sum = 0;              // Σ weight · measure
  double count = 0;            // Σ weight
  double min = 0;              // min measure over live rows
  double max = 0;              // max measure over live rows
  int64_t child = -1;          // child page id; -1 for leaf entries
};
static_assert(std::is_trivially_copyable_v<AggIndexEntry>);
static_assert(sizeof(AggIndexEntry) == 112);

inline constexpr int64_t kAggIndexEntriesPerPage =
    static_cast<int64_t>((kPageSize - sizeof(AggIndexNodeHeader)) /
                         sizeof(AggIndexEntry));
static_assert(kAggIndexEntriesPerPage == 36);

/// Header level of marginal pages: per-hierarchy-node partials stored after
/// the cell tree. A marginal entry's key is (dimension, NodeId, 0...), its
/// bbox the node's leaf range on that dimension crossed with the full range
/// everywhere else.
inline constexpr int32_t kAggIndexMarginalLevel = -1;

struct AggIndexOptions {
  /// Cells accumulated in the in-memory overlay (cells that appeared after
  /// the last build) before the next query triggers a full rebuild.
  int64_t max_overlay_cells = 4096;
  /// Dirty min/max rects kept individually; beyond this they are collapsed
  /// into one covering box (coarser, still conservative).
  int64_t max_dirty_boxes = 64;
};

/// Paged, disk-resident hierarchical aggregate index over the Extended
/// Database: per-measure partials (sum, count, min, max) for every occupied
/// leaf cell, packed bottom-up into a static tree in canonical cell order,
/// plus one marginal entry per occupied hierarchy node of every dimension.
/// Because every hierarchy node covers a contiguous leaf range, any query
/// region is an axis-aligned leaf box; a region that constrains exactly one
/// dimension to a hierarchy node — the rollup/dashboard pattern — is a
/// single marginal-page probe, and any other box is answered by the tree:
/// whole subtrees merge where the entry box is contained, recursion handles
/// the fringe. Either way, a few node pages instead of a full EDB scan. All
/// node access goes through the BufferPool, so index I/O is counted (and
/// reported under the `aggidx.*` metric family), separate from the
/// allocation path's demand I/O.
///
/// Incremental maintenance: installed as the MaintenanceManager's
/// EdbChangeListener, it buffers the per-leaf deltas of the in-flight batch
/// and `Commit` patches sum/count (and monotone min/max growth) in place in
/// one key-ordered pass: each touched tree page is pinned once and each
/// internal entry takes the summed delta of its touched cells once, then
/// each covering marginal entry takes its summed delta once. Removals are
/// non-subtractive for min/max,
/// so the batch's `MaintenanceStats::touched_boxes` are recorded as dirty
/// rects instead — the next MIN/MAX query intersecting one lazily rebuilds
/// the tree from a single EDB pass. Cells first seen after the build live
/// in an in-memory overlay until that next rebuild.
///
/// Thread-safety: one internal mutex serializes all operations. The serve
/// layer calls queries under its shared snapshot lock and Commit/Invalidate
/// under the exclusive lock; lock order is always snapshot lock first, then
/// this index's mutex.
class AggIndex : public EdbChangeListener {
 public:
  struct Stats {
    int64_t probes = 0;         // aggregate / rollup-group lookups served
    int64_t nodes_read = 0;     // node pages visited by lookups
    int64_t builds = 0;         // full builds (first use or invalidation)
    int64_t refreshes = 0;      // lazy rebuilds forced by dirty min/max
    int64_t cells_patched = 0;  // per-cell in-place partial patches
    int64_t marginal_hits = 0;  // probes answered from one marginal entry
    int64_t cells = 0;          // cells in the packed tree
    int64_t pages = 0;          // node pages (tree + marginals)
    int64_t height = 0;         // tree levels
    int64_t overlay_cells = 0;  // cells currently in the overlay
    int64_t dirty_boxes = 0;    // dirty min/max rects outstanding
  };

  AggIndex(StorageEnv* env, const StarSchema* schema,
           const TypedFile<EdbRecord>* edb,
           const AggIndexOptions& options = AggIndexOptions());

  AggIndex(const AggIndex&) = delete;
  AggIndex& operator=(const AggIndex&) = delete;

  /// Builds (or rebuilds) the tree from one EDB pass; clears the overlay
  /// and all dirty state. Queries build lazily, so calling this is only
  /// needed to front-load the cost.
  Status Build();

  /// Allocation-weighted aggregate over `region`, answered from node
  /// partials (triggers a lazy rebuild first if the index is stale for
  /// `func` — see class comment).
  Result<AggregateResult> Aggregate(const QueryRegion& region,
                                    AggregateFunc func);

  /// Rollup: one aggregate per node of `dim` at `level` restricted to
  /// `region`, indexed by node ordinal — answered as one index probe per
  /// group (each group region is still a box).
  Result<std::vector<AggregateResult>> RollUp(const QueryRegion& region,
                                              int dim, int level,
                                              AggregateFunc func);

  // EdbChangeListener: buffers the in-flight maintenance batch's per-cell
  // deltas (applied only by Commit).
  void OnDeltas(std::span<const EdbLeafDelta> deltas) override;

  /// Folds the buffered deltas into the index after a successful batch.
  /// `touched` / `n` is the batch's MaintenanceStats::touched_boxes slice;
  /// if the batch removed rows these become dirty min/max rects.
  Status Commit(const Rect* touched, size_t n);

  /// Drops buffered deltas and marks the whole index stale (failed or
  /// partially applied batch); the next query rebuilds from the EDB.
  void Invalidate();

  /// Whether a query may trigger a full (re)build, which scans the whole
  /// EDB (default true). The sharded serve layer turns this off: a query
  /// there holds only a subset of the shard locks, so a full EDB scan from
  /// the query path could race a concurrent writer on an unlocked shard.
  /// With rebuilds gated off, a query needing one returns kUnavailable and
  /// the caller falls back to its own (safely locked) scan.
  void set_rebuild_on_query(bool allowed);

  /// Optional columnar scan source for (re)builds. The provider is called
  /// at the start of every build; when it returns a mirror covering
  /// exactly the EDB's current rows, the build scans the mirror instead of
  /// the row file, decoding only measure + weight + leaf columns (never
  /// fact_id). A null / short / long mirror falls back to the row scan.
  /// The provider must be cheap and thread-safe; it runs under the index
  /// mutex and must not call back into this index or the serve layer.
  void set_columnar_provider(
      std::function<std::shared_ptr<const ColumnarEdb>()> provider);

  /// Rebuilds now if the index is unbuilt or stale; a no-op otherwise.
  /// The mutation-path companion of the gate above — called where the
  /// caller knows no writer can be concurrent (e.g. after a commit, under
  /// the mutation lock). Dirty min/max rects alone do not trigger this
  /// (they only pessimize MIN/MAX queries, which keep falling back).
  Status RebuildIfStale();

  Stats stats() const;

  /// Introspection for tests and tools: every node page of the last build
  /// as stored now (tree pages at level >= 0, marginal pages at
  /// kAggIndexMarginalLevel), the overlay cells as leaf entries, and the
  /// dirty min/max rects.
  struct Contents {
    struct Page {
      int64_t id = 0;
      int32_t level = 0;
      std::vector<AggIndexEntry> entries;
    };
    bool ready = false;  // built and not stale
    std::vector<Page> pages;
    std::vector<AggIndexEntry> overlay;
    std::vector<Rect> dirty_minmax;
  };
  Result<Contents> Snapshot() const;

 private:
  struct Partials {
    double sum = 0;
    double count = 0;
    double min = 0;
    double max = 0;
  };
  /// Summed effect of a run of cell deltas on one entry: additive parts,
  /// plus the min/max widening of the cells that only gained rows.
  struct EntryDelta {
    double dsum = 0;
    double dcount = 0;
    double widen_min = std::numeric_limits<double>::infinity();
    double widen_max = -std::numeric_limits<double>::infinity();
    bool any = false;  // at least one cell of the run was found

    void Add(const EdbLeafDelta& d);
    void Add(const EntryDelta& other);
    void ApplyTo(AggIndexEntry* e) const;
  };
  using LeafKey = std::array<int32_t, kMaxDims>;

  Status EnsureBuiltLocked();
  Status BuildLocked(bool is_refresh);
  Status BuildMarginalsLocked(const std::map<LeafKey, Partials>& cells,
                              int64_t* next_page);
  Status WritePageLocked(int64_t page, const AggIndexNodeHeader& header,
                         const AggIndexEntry* entries);
  Status QueryNodeLocked(int64_t page, const Rect& query,
                         AggregateResult* acc);
  Status QueryRectLocked(const Rect& query, AggregateResult* acc);
  bool MarginalNodeForRect(const Rect& query, int* dim, NodeId* node) const;
  bool IntersectsDirtyLocked(const Rect& query) const;
  /// Patches the subtree at `page` with pending_[lo, hi): every entry
  /// whose run holds found cells takes their summed delta once, `found`
  /// marks the cells the tree holds, and `out` returns the page's sum.
  Status PatchTreeLocked(int64_t page, size_t lo, size_t hi, int depth,
                         std::vector<char>* found, EntryDelta* out,
                         int64_t* pages_pinned);
  Status PatchMarginalsLocked(const std::vector<char>& found,
                              int64_t* pages_pinned);
  void InvalidateLocked();

  StorageEnv* env_;
  const StarSchema* schema_;
  const TypedFile<EdbRecord>* edb_;
  AggIndexOptions options_;

  mutable std::mutex mu_;
  FileId file_ = kInvalidFileId;
  int64_t root_ = -1;      // root page id; -1 when the tree is empty
  int64_t num_pages_ = 0;  // node pages written by the last build
  bool built_ = false;
  bool stale_ = false;  // full rebuild required before any answer
  bool rebuild_on_query_ = true;  // see set_rebuild_on_query
  std::function<std::shared_ptr<const ColumnarEdb>()> columnar_provider_;
  std::map<LeafKey, Partials> overlay_;  // cells added after the build
  std::vector<Rect> dirty_minmax_;       // regions with stale min/max
  /// In-flight batch deltas, one per leaf, sorted by LeafKeyLess.
  std::vector<EdbLeafDelta> pending_;
  /// (dim << 32 | NodeId) -> (page, slot) of the node's marginal entry.
  std::unordered_map<int64_t, std::pair<int64_t, int32_t>> marginal_dir_;
  Stats stats_;

  // Cached global-metrics handles (null when observability is disabled).
  class Counter* probes_counter_;
  class Counter* nodes_read_counter_;
  class Counter* builds_counter_;
  class Counter* refreshes_counter_;
  class Counter* patched_counter_;
  class Gauge* cells_gauge_;
  class Gauge* pages_gauge_;
};

}  // namespace iolap

#endif  // IOLAP_AGGIDX_AGG_INDEX_H_
