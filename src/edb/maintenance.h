#ifndef IOLAP_EDB_MAINTENANCE_H_
#define IOLAP_EDB_MAINTENANCE_H_

#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "alloc/algorithms.h"
#include "alloc/allocator.h"
#include "alloc/dataset.h"
#include "common/result.h"
#include "rtree/paged_rtree.h"
#include "rtree/rtree.h"
#include "storage/storage_env.h"

namespace iolap {

/// One measure update: `before` is the fact as currently stored (id, region
/// and old measure), `new_measure` replaces its measure. Regions are
/// immutable under update, so the component structure is unchanged
/// (Theorem 12) and EDB rows are rewritten in place.
struct FactUpdate {
  FactRecord before;
  double new_measure = 0;
};

/// The net change of one leaf cell's live Extended Database rows over one
/// mutation call. Every live row the call added (appended or rewritten in
/// place) folds in with +, every previously live row it removed
/// (tombstoned or overwritten) with −; tombstones themselves never count.
/// A row removed and re-added within the call (an in-place rewrite) nets
/// out of the sums but still sets `removed`.
struct EdbLeafDelta {
  int32_t leaf[kMaxDims] = {};
  double dw = 0;       // Σ ±weight
  double dwv = 0;      // Σ ±weight · measure
  double dwv2 = 0;     // Σ ±weight · measure²
  int64_t drows = 0;   // rows added − rows removed
  /// Extremes of the added rows' measures; add_min > add_max (the initial
  /// +inf / −inf) when the call added no row here.
  double add_min = std::numeric_limits<double>::infinity();
  double add_max = -std::numeric_limits<double>::infinity();
  bool removed = false;  // some live row left this leaf

  bool added() const { return add_min <= add_max; }
  /// Folds one added (`sign` = +1) or removed (`sign` = −1) row in.
  void Fold(const EdbRecord& rec, int sign);
  /// Folds another delta of the same leaf in.
  void Merge(const EdbLeafDelta& other);
};

/// Canonical (dimension-0-major) order of leaf keys, compared as signed
/// ints over all kMaxDims slots (unused dimensions are 0).
bool LeafKeyLess(const int32_t* a, const int32_t* b);

/// Observer of Extended Database changes, so a derived structure — the
/// serve layer's aggregate index and synopsis store — can stay consistent
/// without rescanning. The maintenance layer nets every row change of one
/// mutation call (ApplyUpdates, InsertFacts, DeleteFacts) per leaf cell and
/// hands the result over in one OnDeltas call at the end of that call:
/// one delta per distinct leaf, sorted by LeafKeyLess. A call that changed
/// no live row makes no OnDeltas call. The hand-off happens before the
/// batch is known to succeed (a failed call hands over whatever prefix it
/// applied); implementations should buffer and only apply on an external
/// commit signal. CompactEdb is a logical no-op and hands over nothing.
class EdbChangeListener {
 public:
  virtual ~EdbChangeListener() = default;
  virtual void OnDeltas(std::span<const EdbLeafDelta> deltas) = 0;
};

/// Fans one change stream out to several listeners (the MaintenanceManager
/// holds a single listener slot; the serve layer feeds both its aggregate
/// index and its synopsis store from it). Targets are registered once at
/// setup — not thread-safe against concurrent Add.
class EdbChangeFanout : public EdbChangeListener {
 public:
  void Add(EdbChangeListener* listener) { targets_.push_back(listener); }
  bool empty() const { return targets_.empty(); }
  void OnDeltas(std::span<const EdbLeafDelta> deltas) override {
    for (EdbChangeListener* t : targets_) t->OnDeltas(deltas);
  }

 private:
  std::vector<EdbChangeListener*> targets_;
};

/// Nets row changes per leaf cell: a flat open-addressing hash table from
/// the leaf tuple to its EdbLeafDelta, so folding a row costs one probe.
class LeafDeltaTable {
 public:
  void Add(const EdbRecord& rec) { At(rec.leaf).Fold(rec, +1); }
  void Remove(const EdbRecord& rec) { At(rec.leaf).Fold(rec, -1); }
  bool empty() const { return deltas_.empty(); }
  /// Returns the deltas sorted by LeafKeyLess and empties the table.
  std::vector<EdbLeafDelta> TakeSorted();

 private:
  EdbLeafDelta& At(const int32_t* leaf);

  std::vector<EdbLeafDelta> deltas_;
  std::vector<int32_t> slots_;  // index into deltas_; -1 = empty slot
};

struct MaintenanceStats {
  /// Bounding boxes (inclusive leaf coordinates) of everything this batch
  /// touched: each mutated fact's own region rect plus the pre-mutation
  /// bboxes of every alive component it overlapped. Every EDB row whose
  /// value changed (rewritten, appended, or tombstoned) lies inside one of
  /// these boxes — the serve layer's cache invalidates exactly the cached
  /// regions that intersect them. Appended across batches; not deduplicated.
  std::vector<Rect> touched_boxes;
  int64_t updates_applied = 0;
  int64_t inserts_applied = 0;
  int64_t deletes_applied = 0;
  int64_t components_touched = 0;
  int64_t components_merged = 0;
  int64_t tuples_fetched = 0;
  int64_t edb_rows_rewritten = 0;
  int64_t edb_rows_appended = 0;
  int64_t edb_rows_tombstoned = 0;
  int64_t rtree_nodes_accessed = 0;
  double seconds = 0;
  IoStats io;
};

/// The Extended Database maintenance layer of Section 9: builds D* with the
/// Transitive algorithm, keeps the component-sorted files plus an R-tree
/// over component bounding boxes, and applies update/insert/delete batches
/// by re-allocating only the overlapped components instead of rebuilding.
///
/// Structural changes (inserts/deletes) are handled with an overlay model:
/// the component-sorted files stay immutable apart from in-place value
/// write-backs, while new tuples, tombstones, and component merges live in
/// an in-memory directory of segment lists + overlays. Superseded EDB rows
/// are tombstoned with weight 0 (a no-op for every aggregate); call
/// `CompactEdb()` to squeeze them out.
class MaintenanceManager {
 public:
  /// A maintained component: the segments it owns in the component-sorted
  /// files, plus everything that changed since the build.
  struct MaintComponent {
    std::vector<std::pair<int64_t, int64_t>> cell_segments;
    std::vector<std::pair<int64_t, int64_t>> entry_segments;
    std::vector<CellRecord> overlay_cells;
    std::vector<ImpreciseRecord> overlay_entries;
    std::set<FactId> deleted;  // imprecise facts tombstoned
    Rect bbox;
    std::vector<std::pair<int64_t, int64_t>> edb_ranges;  // live rows
    bool alive = true;

    int64_t tuples() const {
      int64_t n = static_cast<int64_t>(overlay_cells.size() +
                                       overlay_entries.size());
      for (auto [b, e] : cell_segments) n += e - b;
      for (auto [b, e] : entry_segments) n += e - b;
      return n;
    }
  };

  /// Runs preprocessing + Transitive on `facts` (consumed), bulk-loads the
  /// R-tree from the component directory. `build_result()` reports the
  /// three phases like Allocator::Run: prep (preprocessing), alloc
  /// (Transitive, emission included) and emit (directory and R-tree load);
  /// their demand I/Os sum to the build's whole disk-counter delta.
  static Result<std::unique_ptr<MaintenanceManager>> Build(
      StorageEnv& env, const StarSchema& schema,
      TypedFile<FactRecord>* facts, const AllocationOptions& options);

  /// Measure updates to existing facts (regions unchanged).
  Status ApplyUpdates(const std::vector<FactUpdate>& updates,
                      MaintenanceStats* stats);

  /// Inserts new facts. Imprecise inserts may merge every component their
  /// region overlaps into one (with the R-tree updated accordingly);
  /// precise inserts adjust δ and may add new cells to C.
  Status InsertFacts(const std::vector<FactRecord>& inserts,
                     MaintenanceStats* stats);

  /// Deletes existing facts (pass the stored record). A deletion never
  /// splits the directory's components eagerly — a disconnected component
  /// still allocates correctly (Theorem 9), only less efficiently — but a
  /// component whose last imprecise fact disappears is dissolved.
  Status DeleteFacts(const std::vector<FactRecord>& deletes,
                     MaintenanceStats* stats);

  /// Rewrites the EDB without tombstoned rows; returns rows removed.
  Result<int64_t> CompactEdb();

  const TypedFile<EdbRecord>& edb() const { return build_result_.edb; }
  const StarSchema& schema() const { return *schema_; }
  const AllocationResult& build_result() const { return build_result_; }
  const std::vector<MaintComponent>& directory() const { return directory_; }
  /// The disk-based spatial index over component bounding boxes. Non-const:
  /// even searches pin pages through the buffer pool.
  PagedRTree& rtree() { return *rtree_; }
  StorageEnv& env() { return *env_; }

  /// Installs (or clears, with nullptr) the change listener. The
  /// maintenance I/O pattern is the same with or without one: with one,
  /// re-allocation also reads each old row of a spliced component, on the
  /// page the splice has pinned to overwrite it, to net it out.
  void set_change_listener(EdbChangeListener* listener) {
    listener_ = listener;
  }

 private:
  MaintenanceManager(StorageEnv* env, const StarSchema* schema)
      : env_(env), schema_(schema) {}

  using LeafKey = std::array<int32_t, kMaxDims>;

  /// Re-allocates one component from scratch (fresh EM over the current δ)
  /// and splices its EDB rows; applies and persists pending δ adjustments.
  /// `candidate_cells` offers new cells that join the component iff one of
  /// its facts covers them; the survivors are removed from the vector.
  Status ReallocateComponent(int64_t comp,
                             std::map<LeafKey, double>* delta_adjust,
                             std::vector<CellRecord>* candidate_cells,
                             MaintenanceStats* stats);

  /// Hands the call's netted row changes to the listener (if any) and
  /// empties the table. Runs on every exit path of a mutation call.
  void PublishDeltas();

  /// Finds a cell in the singleton region of the cells file (binary search
  /// in canonical order); -1 if absent or absorbed.
  Result<int64_t> FindSingletonCell(const LeafKey& key);

  /// Collects singleton + loose cells covered by `region`, marks the file
  /// copies absorbed, and returns them.
  Status AbsorbCoveredCells(const FactRecord& region,
                            std::vector<CellRecord>* out);

  StorageEnv* env_;
  const StarSchema* schema_;
  AllocationOptions options_;
  PreparedDataset data_;
  AllocationResult build_result_;
  std::vector<MaintComponent> directory_;
  std::unique_ptr<PagedRTree> rtree_;
  EdbChangeListener* listener_ = nullptr;
  LeafDeltaTable changes_;  // the current call's row changes, by leaf

  int64_t singleton_begin_ = 0;      // first singleton cell in the file
  std::vector<CellRecord> loose_cells_;  // cells added after the build
  /// Precise EDB rows appended after the build, by fact id.
  std::unordered_map<FactId, int64_t> extra_precise_rows_;
};

}  // namespace iolap

#endif  // IOLAP_EDB_MAINTENANCE_H_
