#include "aggidx/agg_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "edb/columnar.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace iolap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool SameKey(const int32_t* a, const int32_t* b) {
  return std::equal(a, a + kMaxDims, b);
}

int64_t MarginalKey(int dim, NodeId node) {
  return (static_cast<int64_t>(dim) << 32) | static_cast<uint32_t>(node);
}

/// Folds a subtree entry's partials (and bbox) into a parent entry.
void MergeEntryInto(AggIndexEntry* parent, const AggIndexEntry& child) {
  for (int d = 0; d < kMaxDims; ++d) {
    parent->bbox.lo[d] = std::min(parent->bbox.lo[d], child.bbox.lo[d]);
    parent->bbox.hi[d] = std::max(parent->bbox.hi[d], child.bbox.hi[d]);
  }
  parent->sum += child.sum;
  parent->count += child.count;
  parent->min = std::min(parent->min, child.min);
  parent->max = std::max(parent->max, child.max);
}

}  // namespace

AggIndex::AggIndex(StorageEnv* env, const StarSchema* schema,
                   const TypedFile<EdbRecord>* edb,
                   const AggIndexOptions& options)
    : env_(env),
      schema_(schema),
      edb_(edb),
      options_(options),
      probes_counter_(GlobalCounter("aggidx.probes")),
      nodes_read_counter_(GlobalCounter("aggidx.nodes_read")),
      builds_counter_(GlobalCounter("aggidx.builds")),
      refreshes_counter_(GlobalCounter("aggidx.refreshes")),
      patched_counter_(GlobalCounter("aggidx.cells_patched")),
      cells_gauge_(GlobalGauge("aggidx.cells")),
      pages_gauge_(GlobalGauge("aggidx.pages")) {}

Status AggIndex::Build() {
  std::lock_guard<std::mutex> lock(mu_);
  return BuildLocked(/*is_refresh=*/false);
}

Status AggIndex::EnsureBuiltLocked() {
  if (built_ && !stale_) return Status::Ok();
  if (!rebuild_on_query_) {
    return Status::Unavailable(
        "aggregate index stale and query-path rebuilds are gated off");
  }
  return BuildLocked(/*is_refresh=*/false);
}

void AggIndex::set_rebuild_on_query(bool allowed) {
  std::lock_guard<std::mutex> lock(mu_);
  rebuild_on_query_ = allowed;
}

void AggIndex::set_columnar_provider(
    std::function<std::shared_ptr<const ColumnarEdb>()> provider) {
  std::lock_guard<std::mutex> lock(mu_);
  columnar_provider_ = std::move(provider);
}

Status AggIndex::RebuildIfStale() {
  std::lock_guard<std::mutex> lock(mu_);
  if (built_ && !stale_) return Status::Ok();
  return BuildLocked(/*is_refresh=*/built_);
}

Status AggIndex::WritePageLocked(int64_t page,
                                 const AggIndexNodeHeader& header,
                                 const AggIndexEntry* entries) {
  IOLAP_ASSIGN_OR_RETURN(int64_t file_pages, env_->disk().SizeInPages(file_));
  PageGuard guard;
  if (page < file_pages) {
    IOLAP_ASSIGN_OR_RETURN(guard, env_->pool().Pin(file_, page));
  } else {
    IOLAP_ASSIGN_OR_RETURN(guard, env_->pool().PinNew(file_, page));
  }
  std::memset(guard.data(), 0, kPageSize);
  std::memcpy(guard.data(), &header, sizeof(header));
  std::memcpy(guard.data() + sizeof(header), entries,
              header.num_entries * sizeof(AggIndexEntry));
  guard.MarkDirty();
  return Status::Ok();
}

Status AggIndex::BuildLocked(bool is_refresh) {
  TraceSpan span(is_refresh ? "aggidx.refresh" : "aggidx.build");
  if (file_ == kInvalidFileId) {
    IOLAP_ASSIGN_OR_RETURN(file_, env_->disk().CreateFile("aggidx"));
  }

  // One EDB pass: fold live rows into per-cell partials, canonically
  // ordered. Memory is O(|occupied cells|) — the same bound the
  // maintenance directory already carries.
  std::map<LeafKey, Partials> cells;
  const auto fold = [&](double weight, double measure, const int32_t* leaf) {
    LeafKey key{};
    std::memcpy(key.data(), leaf, sizeof(int32_t) * kMaxDims);
    auto [it, inserted] = cells.try_emplace(key);
    if (inserted) {
      it->second.min = kInf;
      it->second.max = -kInf;
    }
    it->second.sum += weight * measure;
    it->second.count += weight;
    it->second.min = std::min(it->second.min, measure);
    it->second.max = std::max(it->second.max, measure);
  };
  // Prefer the columnar mirror when it covers exactly the current rows:
  // the build needs measure + weight + every leaf column but never
  // fact_id, and the compressed extents cost fewer pages besides.
  std::shared_ptr<const ColumnarEdb> mirror;
  if (columnar_provider_) mirror = columnar_provider_();
  if (mirror != nullptr && mirror->num_rows() == edb_->size()) {
    EdbProjection proj;
    proj.measure = proj.weight = true;
    for (int d = 0; d < schema_->num_dims(); ++d) proj.leaf[d] = true;
    IOLAP_RETURN_IF_ERROR(mirror->ScanRows(
        env_->pool(), 0, -1, proj, [&](const ColumnarEdb::Row& row) {
          if (ColumnarEdb::IsTombstone(row.weight)) return;
          fold(row.weight, row.measure, row.leaf);
        }));
  } else {
    auto cursor = edb_->Scan(env_->pool());
    EdbRecord rec;
    while (!cursor.done()) {
      IOLAP_RETURN_IF_ERROR(cursor.Next(&rec));
      if (rec.weight == 0 && rec.fact_id == -1) continue;  // tombstone
      fold(rec.weight, rec.measure, rec.leaf);
    }
  }

  // Bottom-up bulk load, pages 100% packed: the tree is static between
  // rebuilds (post-build cells live in the overlay), so there is no need
  // for insertion slack.
  std::vector<AggIndexEntry> level;
  level.reserve(cells.size());
  for (const auto& [key, p] : cells) {
    AggIndexEntry e;
    std::memcpy(e.key, key.data(), sizeof(e.key));
    for (int d = 0; d < kMaxDims; ++d) {
      e.bbox.lo[d] = key[d];
      e.bbox.hi[d] = key[d];
    }
    e.sum = p.sum;
    e.count = p.count;
    e.min = p.min;
    e.max = p.max;
    e.child = -1;
    level.push_back(e);
  }

  int64_t next_page = 0;
  int32_t tree_level = 0;
  root_ = -1;
  while (!level.empty()) {
    std::vector<AggIndexEntry> parents;
    const int64_t n = static_cast<int64_t>(level.size());
    for (int64_t i = 0; i < n; i += kAggIndexEntriesPerPage) {
      const int64_t cnt = std::min(n - i, kAggIndexEntriesPerPage);
      AggIndexNodeHeader header;
      header.num_entries = static_cast<int32_t>(cnt);
      header.level = tree_level;
      const int64_t page = next_page++;
      IOLAP_RETURN_IF_ERROR(WritePageLocked(page, header, &level[i]));
      AggIndexEntry parent = level[i];  // key = first cell of the run
      parent.child = page;
      for (int64_t j = 1; j < cnt; ++j) MergeEntryInto(&parent, level[i + j]);
      parents.push_back(parent);
    }
    ++tree_level;
    if (parents.size() == 1) {
      root_ = parents[0].child;
      break;
    }
    level = std::move(parents);
  }
  IOLAP_RETURN_IF_ERROR(BuildMarginalsLocked(cells, &next_page));
  IOLAP_RETURN_IF_ERROR(env_->pool().FlushFile(file_));

  num_pages_ = next_page;
  stats_.cells = static_cast<int64_t>(cells.size());
  stats_.pages = num_pages_;
  stats_.height = tree_level;
  if (is_refresh) {
    ++stats_.refreshes;
    if (refreshes_counter_ != nullptr) refreshes_counter_->Add(1);
  } else {
    ++stats_.builds;
    if (builds_counter_ != nullptr) builds_counter_->Add(1);
  }
  if (cells_gauge_ != nullptr) cells_gauge_->Set(stats_.cells);
  if (pages_gauge_ != nullptr) pages_gauge_->Set(stats_.pages);
  span.AddArg("cells", stats_.cells);
  span.AddArg("pages", stats_.pages);

  overlay_.clear();
  dirty_minmax_.clear();
  built_ = true;
  stale_ = false;
  return Status::Ok();
}

Status AggIndex::BuildMarginalsLocked(const std::map<LeafKey, Partials>& cells,
                                      int64_t* next_page) {
  // Fold every occupied cell into each hierarchy node covering it, per
  // dimension: the node partials the serve layer's rollup/dashboard
  // queries hit directly. Sorted by (dim, node) for stable paging.
  marginal_dir_.clear();
  const int k = schema_->num_dims();
  std::map<int64_t, Partials> marginals;
  for (const auto& [key, p] : cells) {
    for (int d = 0; d < k; ++d) {
      const Hierarchy& h = schema_->dim(d);
      const NodeId leaf = h.nodes_at_level(1)[key[d]];
      for (int level = 1; level <= h.num_levels(); ++level) {
        const NodeId anc = h.AncestorAtLevel(leaf, level);
        auto [it, inserted] = marginals.try_emplace(MarginalKey(d, anc));
        if (inserted) {
          it->second.min = kInf;
          it->second.max = -kInf;
        }
        it->second.sum += p.sum;
        it->second.count += p.count;
        it->second.min = std::min(it->second.min, p.min);
        it->second.max = std::max(it->second.max, p.max);
      }
    }
  }

  std::vector<AggIndexEntry> entries;
  entries.reserve(marginals.size());
  for (const auto& [mkey, p] : marginals) {
    const int d = static_cast<int>(mkey >> 32);
    const NodeId node = static_cast<NodeId>(mkey & 0xffffffff);
    AggIndexEntry e;
    e.key[0] = d;
    e.key[1] = node;
    for (int j = 0; j < kMaxDims; ++j) {
      e.bbox.lo[j] = 0;
      e.bbox.hi[j] =
          j < k ? static_cast<int32_t>(
                      schema_->dim(j).nodes_at_level(1).size()) -
                      1
                : 0;
    }
    e.bbox.lo[d] = schema_->dim(d).leaf_begin(node);
    e.bbox.hi[d] = schema_->dim(d).leaf_end(node) - 1;
    e.sum = p.sum;
    e.count = p.count;
    e.min = p.min;
    e.max = p.max;
    e.child = -1;
    entries.push_back(e);
  }
  const int64_t n = static_cast<int64_t>(entries.size());
  for (int64_t i = 0; i < n; i += kAggIndexEntriesPerPage) {
    const int64_t cnt = std::min(n - i, kAggIndexEntriesPerPage);
    AggIndexNodeHeader header;
    header.num_entries = static_cast<int32_t>(cnt);
    header.level = kAggIndexMarginalLevel;
    const int64_t page = (*next_page)++;
    IOLAP_RETURN_IF_ERROR(WritePageLocked(page, header, &entries[i]));
    for (int64_t j = 0; j < cnt; ++j) {
      const AggIndexEntry& e = entries[i + j];
      marginal_dir_[MarginalKey(e.key[0], e.key[1])] = {
          page, static_cast<int32_t>(j)};
    }
  }
  return Status::Ok();
}

/// A query rect is marginal-eligible when it constrains exactly one
/// dimension, to exactly the leaf range of one hierarchy node.
bool AggIndex::MarginalNodeForRect(const Rect& query, int* dim,
                                   NodeId* node) const {
  const int k = schema_->num_dims();
  int cdim = -1;
  for (int d = 0; d < k; ++d) {
    const int32_t leaves =
        static_cast<int32_t>(schema_->dim(d).nodes_at_level(1).size());
    if (query.lo[d] == 0 && query.hi[d] == leaves - 1) continue;
    if (cdim >= 0) return false;  // two or more constrained dims: tree path
    cdim = d;
  }
  if (cdim < 0) return false;  // grand total: root containment is O(1)
  const Hierarchy& h = schema_->dim(cdim);
  const auto& leaves = h.nodes_at_level(1);
  if (query.lo[cdim] < 0 ||
      query.lo[cdim] >= static_cast<int32_t>(leaves.size())) {
    return false;
  }
  const NodeId leaf = leaves[query.lo[cdim]];
  for (int level = 1; level <= h.num_levels(); ++level) {
    const NodeId anc = h.AncestorAtLevel(leaf, level);
    if (h.leaf_begin(anc) == query.lo[cdim] &&
        h.leaf_end(anc) == query.hi[cdim] + 1) {
      *dim = cdim;
      *node = anc;
      return true;
    }
  }
  return false;
}

Status AggIndex::QueryNodeLocked(int64_t page, const Rect& query,
                                 AggregateResult* acc) {
  ++stats_.nodes_read;
  if (nodes_read_counter_ != nullptr) nodes_read_counter_->Add(1);
  IOLAP_ASSIGN_OR_RETURN(PageGuard guard, env_->pool().Pin(file_, page));
  AggIndexNodeHeader header;
  std::memcpy(&header, guard.data(), sizeof(header));
  const int k = schema_->num_dims();
  for (int32_t i = 0; i < header.num_entries; ++i) {
    AggIndexEntry e;
    std::memcpy(&e, guard.data() + sizeof(header) + i * sizeof(e), sizeof(e));
    if (!RectsIntersect(e.bbox, query, k)) continue;
    if (RectContains(query, e.bbox, k)) {
      acc->sum += e.sum;
      acc->count += e.count;
      acc->min = std::min(acc->min, e.min);
      acc->max = std::max(acc->max, e.max);
      continue;
    }
    // A leaf entry's bbox is a single cell, so intersection implies
    // containment; only internal entries can straddle the query boundary.
    if (header.level > 0) {
      IOLAP_RETURN_IF_ERROR(QueryNodeLocked(e.child, query, acc));
    }
  }
  return Status::Ok();
}

Status AggIndex::QueryRectLocked(const Rect& query, AggregateResult* acc) {
  // Fast path: a single-hierarchy-node constraint reads one marginal entry
  // instead of descending the tree (whose dim-0-major order fragments
  // badly for constraints on later dimensions).
  bool served = false;
  int mdim = -1;
  NodeId mnode = -1;
  if (MarginalNodeForRect(query, &mdim, &mnode)) {
    auto it = marginal_dir_.find(MarginalKey(mdim, mnode));
    if (it != marginal_dir_.end()) {
      ++stats_.nodes_read;
      if (nodes_read_counter_ != nullptr) nodes_read_counter_->Add(1);
      IOLAP_ASSIGN_OR_RETURN(PageGuard guard,
                             env_->pool().Pin(file_, it->second.first));
      AggIndexEntry e;
      std::memcpy(&e,
                  guard.data() + sizeof(AggIndexNodeHeader) +
                      it->second.second * sizeof(e),
                  sizeof(e));
      acc->sum += e.sum;
      acc->count += e.count;
      acc->min = std::min(acc->min, e.min);
      acc->max = std::max(acc->max, e.max);
      ++stats_.marginal_hits;
      served = true;
    }
  }
  if (!served && root_ >= 0) {
    IOLAP_RETURN_IF_ERROR(QueryNodeLocked(root_, query, acc));
  }
  const int k = schema_->num_dims();
  for (const auto& [key, p] : overlay_) {
    bool inside = true;
    for (int d = 0; d < k; ++d) {
      if (key[d] < query.lo[d] || key[d] > query.hi[d]) {
        inside = false;
        break;
      }
    }
    if (!inside) continue;
    acc->sum += p.sum;
    acc->count += p.count;
    acc->min = std::min(acc->min, p.min);
    acc->max = std::max(acc->max, p.max);
  }
  return Status::Ok();
}

bool AggIndex::IntersectsDirtyLocked(const Rect& query) const {
  const int k = schema_->num_dims();
  for (const Rect& r : dirty_minmax_) {
    if (RectsIntersect(query, r, k)) return true;
  }
  return false;
}

Result<AggregateResult> AggIndex::Aggregate(const QueryRegion& region,
                                            AggregateFunc func) {
  std::lock_guard<std::mutex> lock(mu_);
  IOLAP_RETURN_IF_ERROR(EnsureBuiltLocked());
  const Rect query = RegionToRect(*schema_, region);
  if ((func == AggregateFunc::kMin || func == AggregateFunc::kMax) &&
      IntersectsDirtyLocked(query)) {
    if (!rebuild_on_query_) {
      return Status::Unavailable(
          "min/max dirty and query-path rebuilds are gated off");
    }
    IOLAP_RETURN_IF_ERROR(BuildLocked(/*is_refresh=*/true));
  }
  AggregateResult acc;
  IOLAP_RETURN_IF_ERROR(QueryRectLocked(query, &acc));
  FinalizeAggregate(&acc, func);
  ++stats_.probes;
  if (probes_counter_ != nullptr) probes_counter_->Add(1);
  return acc;
}

Result<std::vector<AggregateResult>> AggIndex::RollUp(
    const QueryRegion& region, int dim, int level, AggregateFunc func) {
  if (dim < 0 || dim >= schema_->num_dims()) {
    return Status::InvalidArgument("rollup dimension out of range");
  }
  const Hierarchy& h = schema_->dim(dim);
  if (level < 1 || level > h.num_levels()) {
    return Status::InvalidArgument("rollup level out of range");
  }
  std::lock_guard<std::mutex> lock(mu_);
  IOLAP_RETURN_IF_ERROR(EnsureBuiltLocked());
  const Rect base = RegionToRect(*schema_, region);
  if ((func == AggregateFunc::kMin || func == AggregateFunc::kMax) &&
      IntersectsDirtyLocked(base)) {
    if (!rebuild_on_query_) {
      return Status::Unavailable(
          "min/max dirty and query-path rebuilds are gated off");
    }
    IOLAP_RETURN_IF_ERROR(BuildLocked(/*is_refresh=*/true));
  }
  const std::vector<NodeId>& nodes = h.nodes_at_level(level);
  std::vector<AggregateResult> groups(nodes.size());
  for (size_t g = 0; g < nodes.size(); ++g) {
    // Each group is the query region narrowed to the group node in `dim` —
    // still an axis-aligned box, so it is one more index probe.
    const int32_t glo = std::max(base.lo[dim], h.leaf_begin(nodes[g]));
    const int32_t ghi = std::min(base.hi[dim], h.leaf_end(nodes[g]) - 1);
    AggregateResult acc;
    if (glo <= ghi) {
      Rect q = base;
      q.lo[dim] = glo;
      q.hi[dim] = ghi;
      IOLAP_RETURN_IF_ERROR(QueryRectLocked(q, &acc));
    }
    FinalizeAggregate(&acc, func);
    groups[g] = acc;
    ++stats_.probes;
    if (probes_counter_ != nullptr) probes_counter_->Add(1);
  }
  return groups;
}

void AggIndex::OnDeltas(std::span<const EdbLeafDelta> deltas) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) {
    pending_.assign(deltas.begin(), deltas.end());
    return;
  }
  // Several mutation calls before one commit: merge the two key-sorted
  // runs, folding the deltas of a leaf present in both.
  std::vector<EdbLeafDelta> merged;
  merged.reserve(pending_.size() + deltas.size());
  size_t i = 0, j = 0;
  while (i < pending_.size() || j < deltas.size()) {
    if (j == deltas.size() ||
        (i < pending_.size() &&
         LeafKeyLess(pending_[i].leaf, deltas[j].leaf))) {
      merged.push_back(pending_[i++]);
    } else if (i == pending_.size() ||
               LeafKeyLess(deltas[j].leaf, pending_[i].leaf)) {
      merged.push_back(deltas[j++]);
    } else {
      merged.push_back(pending_[i++]);
      merged.back().Merge(deltas[j++]);
    }
  }
  pending_ = std::move(merged);
}

void AggIndex::EntryDelta::Add(const EdbLeafDelta& d) {
  dsum += d.dwv;
  dcount += d.dw;
  // Min/max only ever widen, and only from pure additions — a batch that
  // removed rows marks dirty rects instead (handled by Commit).
  if (d.added() && !d.removed) {
    widen_min = std::min(widen_min, d.add_min);
    widen_max = std::max(widen_max, d.add_max);
  }
  any = true;
}

void AggIndex::EntryDelta::Add(const EntryDelta& other) {
  dsum += other.dsum;
  dcount += other.dcount;
  widen_min = std::min(widen_min, other.widen_min);
  widen_max = std::max(widen_max, other.widen_max);
  any = any || other.any;
}

void AggIndex::EntryDelta::ApplyTo(AggIndexEntry* e) const {
  e->sum += dsum;
  e->count += dcount;
  e->min = std::min(e->min, widen_min);
  e->max = std::max(e->max, widen_max);
}

Status AggIndex::PatchTreeLocked(int64_t page, size_t lo, size_t hi,
                                 int depth, std::vector<char>* found,
                                 EntryDelta* out, int64_t* pages_pinned) {
  if (depth == 16) {
    return Status::Internal("aggidx tree deeper than any packed layout");
  }
  ++stats_.nodes_read;
  if (nodes_read_counter_ != nullptr) nodes_read_counter_->Add(1);
  ++*pages_pinned;
  IOLAP_ASSIGN_OR_RETURN(PageGuard guard, env_->pool().Pin(file_, page));
  AggIndexNodeHeader header;
  std::memcpy(&header, guard.data(), sizeof(header));
  if (header.num_entries < 0 || header.num_entries > kAggIndexEntriesPerPage) {
    return Status::Internal("aggidx node entry count out of range");
  }
  std::byte* slots = guard.data() + sizeof(header);
  AggIndexEntry entries[kAggIndexEntriesPerPage];
  std::memcpy(entries, slots, header.num_entries * sizeof(AggIndexEntry));

  // Entries are key-sorted and partition the sorted cell sequence into
  // contiguous runs, so entry i owns the deltas keyed in
  // [key_i, key_{i+1}); deltas keyed before key_0 are not in the tree.
  bool dirty = false;
  size_t next = lo;
  for (int32_t i = 0; i < header.num_entries && next < hi; ++i) {
    AggIndexEntry& e = entries[i];
    while (next < hi && LeafKeyLess(pending_[next].leaf, e.key)) ++next;
    size_t end = hi;
    if (i + 1 < header.num_entries) {
      end = next;
      while (end < hi && LeafKeyLess(pending_[end].leaf, entries[i + 1].key)) {
        ++end;
      }
    }
    if (end == next) continue;
    EntryDelta run;
    if (header.level == 0) {
      // A leaf entry is one cell: only an exact key match is in the tree.
      if (SameKey(pending_[next].leaf, e.key)) {
        run.Add(pending_[next]);
        (*found)[next] = 1;
      }
    } else {
      IOLAP_RETURN_IF_ERROR(PatchTreeLocked(e.child, next, end, depth + 1,
                                            found, &run, pages_pinned));
    }
    next = end;
    if (!run.any) continue;
    run.ApplyTo(&e);
    std::memcpy(slots + i * sizeof(AggIndexEntry), &e, sizeof(e));
    dirty = true;
    out->Add(run);
  }
  if (dirty) guard.MarkDirty();
  return Status::Ok();
}

Status AggIndex::PatchMarginalsLocked(const std::vector<char>& found,
                                      int64_t* pages_pinned) {
  // Mirror of the tree patch for the marginal entries: sum the found
  // cells' deltas per (dimension, covering node), then patch each entry
  // once, pinning each marginal page once. Only cells the packed tree knows
  // count, so every covering marginal exists by construction.
  struct Patch {
    int64_t page;
    int32_t slot;
    EntryDelta delta;
  };
  std::vector<Patch> patches;
  const int k = schema_->num_dims();
  for (int d = 0; d < k; ++d) {
    const Hierarchy& h = schema_->dim(d);
    std::vector<EntryDelta> per_node(h.num_nodes());
    std::vector<NodeId> touched;
    for (size_t i = 0; i < pending_.size(); ++i) {
      if (!found[i]) continue;
      const int32_t leaf = pending_[i].leaf[d];
      if (leaf < 0 || leaf >= h.num_leaves()) {
        return Status::Internal("aggidx cell key outside the leaf domain");
      }
      for (NodeId n = h.leaf_node(leaf);; n = h.parent(n)) {
        if (!per_node[n].any) touched.push_back(n);
        per_node[n].Add(pending_[i]);
        if (n == h.root()) break;
      }
    }
    for (NodeId n : touched) {
      auto it = marginal_dir_.find(MarginalKey(d, n));
      if (it == marginal_dir_.end()) {
        return Status::Internal("aggidx marginal missing for a tree cell");
      }
      patches.push_back(Patch{it->second.first, it->second.second,
                              per_node[n]});
    }
  }
  std::sort(patches.begin(), patches.end(),
            [](const Patch& a, const Patch& b) {
              return a.page != b.page ? a.page < b.page : a.slot < b.slot;
            });
  for (size_t i = 0; i < patches.size();) {
    ++*pages_pinned;
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard,
                           env_->pool().Pin(file_, patches[i].page));
    const int64_t page = patches[i].page;
    for (; i < patches.size() && patches[i].page == page; ++i) {
      std::byte* slot = guard.data() + sizeof(AggIndexNodeHeader) +
                        patches[i].slot * sizeof(AggIndexEntry);
      AggIndexEntry e;
      std::memcpy(&e, slot, sizeof(e));
      patches[i].delta.ApplyTo(&e);
      std::memcpy(slot, &e, sizeof(e));
    }
    guard.MarkDirty();
  }
  return Status::Ok();
}

Status AggIndex::Commit(const Rect* touched, size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!built_ || stale_) {
    // Nothing to patch — the next query rebuilds from the already-mutated
    // EDB, which subsumes these deltas.
    pending_.clear();
    return Status::Ok();
  }
  TraceSpan span("aggidx.commit");
  // One ordered pass over the key-sorted deltas: the tree, then the
  // marginals of every cell the tree holds.
  std::vector<char> found(pending_.size(), 0);
  int64_t pages_pinned = 0;
  if (root_ >= 0 && !pending_.empty()) {
    EntryDelta total;
    Status s = PatchTreeLocked(root_, 0, pending_.size(), /*depth=*/0, &found,
                               &total, &pages_pinned);
    if (s.ok()) s = PatchMarginalsLocked(found, &pages_pinned);
    if (!s.ok()) {
      InvalidateLocked();
      return s;
    }
  }
  int64_t patched = 0;
  bool any_removed = false;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const EdbLeafDelta& delta = pending_[i];
    any_removed |= delta.removed;
    if (found[i]) {
      ++patched;
      continue;
    }
    // Cell not in the packed tree: merge into the overlay. (A removal for
    // an unknown cell can only be the counterpart of earlier overlay
    // additions; the residue stays in the overlay and the dirty rects
    // below cover its min/max.)
    LeafKey key{};
    std::memcpy(key.data(), delta.leaf, sizeof(delta.leaf));
    auto [it, inserted] = overlay_.try_emplace(key);
    Partials& p = it->second;
    if (inserted) {
      p.min = kInf;
      p.max = -kInf;
    }
    p.sum += delta.dwv;
    p.count += delta.dw;
    if (delta.removed) {
      // The overlay cell's extremes can no longer be trusted; widen them so
      // only the dirty-rect rebuild path answers min/max here.
      p.min = kInf;
      p.max = -kInf;
    } else if (delta.added()) {
      p.min = std::min(p.min, delta.add_min);
      p.max = std::max(p.max, delta.add_max);
    }
  }
  pending_.clear();
  stats_.cells_patched += patched;
  if (patched_counter_ != nullptr) patched_counter_->Add(patched);
  span.AddArg("cells_patched", patched);
  span.AddArg("pages_pinned", pages_pinned);

  if (any_removed) {
    dirty_minmax_.insert(dirty_minmax_.end(), touched, touched + n);
    if (static_cast<int64_t>(dirty_minmax_.size()) >
        options_.max_dirty_boxes) {
      // Collapse to one covering box: coarser (more min/max queries will
      // trigger the rebuild) but still conservative, and bounds the
      // per-query dirty check.
      Rect all = dirty_minmax_[0];
      for (const Rect& r : dirty_minmax_) {
        for (int d = 0; d < kMaxDims; ++d) {
          all.lo[d] = std::min(all.lo[d], r.lo[d]);
          all.hi[d] = std::max(all.hi[d], r.hi[d]);
        }
      }
      dirty_minmax_.assign(1, all);
    }
  }
  if (static_cast<int64_t>(overlay_.size()) > options_.max_overlay_cells) {
    stale_ = true;  // overlay too big to stay an overlay; rebuild lazily
  }
  return Status::Ok();
}

void AggIndex::InvalidateLocked() {
  pending_.clear();
  overlay_.clear();
  dirty_minmax_.clear();
  marginal_dir_.clear();
  stale_ = true;
}

void AggIndex::Invalidate() {
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateLocked();
}

AggIndex::Stats AggIndex::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.overlay_cells = static_cast<int64_t>(overlay_.size());
  s.dirty_boxes = static_cast<int64_t>(dirty_minmax_.size());
  return s;
}

Result<AggIndex::Contents> AggIndex::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Contents out;
  out.ready = built_ && !stale_;
  for (int64_t page = 0; built_ && page < num_pages_; ++page) {
    IOLAP_ASSIGN_OR_RETURN(PageGuard guard, env_->pool().Pin(file_, page));
    AggIndexNodeHeader header;
    std::memcpy(&header, guard.data(), sizeof(header));
    if (header.num_entries < 0 ||
        header.num_entries > kAggIndexEntriesPerPage) {
      return Status::Internal("aggidx node entry count out of range");
    }
    Contents::Page& p = out.pages.emplace_back();
    p.id = page;
    p.level = header.level;
    p.entries.resize(header.num_entries);
    std::memcpy(p.entries.data(), guard.data() + sizeof(header),
                header.num_entries * sizeof(AggIndexEntry));
  }
  for (const auto& [key, partials] : overlay_) {
    AggIndexEntry& e = out.overlay.emplace_back();
    std::memcpy(e.key, key.data(), sizeof(e.key));
    for (int d = 0; d < kMaxDims; ++d) e.bbox.lo[d] = e.bbox.hi[d] = key[d];
    e.sum = partials.sum;
    e.count = partials.count;
    e.min = partials.min;
    e.max = partials.max;
  }
  out.dirty_minmax = dirty_minmax_;
  return out;
}

}  // namespace iolap
