#include "alloc/pass.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <deque>
#include <vector>

namespace iolap {

namespace {

/// Open-addressing hash map from a region's node vector (one node per
/// dimension) to a value pointer; linear probing, backward-shift deletion,
/// load factor at most 1/2. A window holds one entry per open region.
template <typename T>
class RegionMap {
 public:
  explicit RegionMap(int dims) : dims_(dims), slots_(16) {}

  T* Find(const int32_t* key) const {
    if (size_ == 0) return nullptr;
    for (size_t i = Home(key);; i = Next(i)) {
      const Slot& slot = slots_[i];
      if (slot.value == nullptr) return nullptr;
      if (Equal(slot.key.data(), key)) return slot.value;
    }
  }

  /// `key` must be absent.
  void Insert(const int32_t* key, T* value) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    Place(key, value);
    ++size_;
  }

  void Erase(const int32_t* key) {
    size_t i = Home(key);
    while (true) {
      if (slots_[i].value == nullptr) return;  // absent
      if (Equal(slots_[i].key.data(), key)) break;
      i = Next(i);
    }
    // Shift later members of the probe run back over the hole, so lookups
    // never need tombstones.
    for (size_t j = Next(i); slots_[j].value != nullptr; j = Next(j)) {
      const size_t home = Home(slots_[j].key.data());
      const bool stays = i < j ? (home > i && home <= j)
                               : (home > i || home <= j);
      if (stays) continue;
      slots_[i] = slots_[j];
      i = j;
    }
    slots_[i].value = nullptr;
    --size_;
  }

 private:
  struct Slot {
    std::array<int32_t, kMaxDims> key{};
    T* value = nullptr;
  };

  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  size_t Home(const int32_t* key) const {
    uint64_t h = 0;
    for (int d = 0; d < dims_; ++d) {
      h = (h ^ static_cast<uint32_t>(key[d])) * 0x9E3779B97F4A7C15ULL;
    }
    return static_cast<size_t>(h ^ (h >> 29)) & (slots_.size() - 1);
  }

  bool Equal(const int32_t* a, const int32_t* b) const {
    for (int d = 0; d < dims_; ++d) {
      if (a[d] != b[d]) return false;
    }
    return true;
  }

  void Place(const int32_t* key, T* value) {
    size_t i = Home(key);
    while (slots_[i].value != nullptr) i = Next(i);
    std::memcpy(slots_[i].key.data(), key,
                sizeof(int32_t) * static_cast<size_t>(dims_));
    slots_[i].value = value;
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.value != nullptr) Place(slot.key.data(), slot.value);
    }
  }

  int dims_;
  size_t size_ = 0;
  std::vector<Slot> slots_;  // power-of-two size
};

/// FIFO of fixed-width keys in a power-of-two ring: one end key per open
/// group, front = the oldest (next to evict).
class KeyQueue {
 public:
  explicit KeyQueue(int width) : width_(static_cast<size_t>(width)) {}

  int32_t* PushBack() {
    if (size_ == capacity_) Grow();
    int32_t* key = &buf_[((head_ + size_) & (capacity_ - 1)) * width_];
    ++size_;
    return key;
  }
  const int32_t* Front() const { return &buf_[head_ * width_]; }
  void PopFront() {
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

 private:
  void Grow() {
    const size_t capacity = std::max<size_t>(16, capacity_ * 2);
    std::vector<int32_t> buf(capacity * width_);
    for (size_t i = 0; i < size_; ++i) {
      std::memcpy(&buf[i * width_],
                  &buf_[((head_ + i) & (capacity_ - 1)) * width_],
                  sizeof(int32_t) * width_);
    }
    buf_.swap(buf);
    capacity_ = capacity;
    head_ = 0;
  }

  size_t width_;
  size_t capacity_ = 0;
  size_t head_ = 0;
  size_t size_ = 0;
  std::vector<int32_t> buf_;
};

/// The current cell's ancestor node at each (dimension, level), computed
/// on first use per cell: a pass only needs the levels of the tables whose
/// windows are open.
class CellNodes {
 public:
  explicit CellNodes(const StarSchema* schema) {
    int slots = 0;
    for (int d = 0; d < schema->num_dims(); ++d) {
      dims_[d] = &schema->dim(d);
      level_base_[d] = slots;
      slots += schema->dim(d).num_levels();
    }
    node_.resize(static_cast<size_t>(slots));
    stamp_.assign(static_cast<size_t>(slots), -1);
  }

  void Reset(const int32_t* leaf) {
    leaf_ = leaf;
    ++now_;
  }

  int32_t Node(int d, int level) {
    const int slot = level_base_[d] + level - 1;
    if (stamp_[slot] != now_) {
      node_[slot] = dims_[d]->LeafAncestor(leaf_[d], level);
      stamp_[slot] = now_;
    }
    return node_[slot];
  }

 private:
  const Hierarchy* dims_[kMaxDims] = {};
  int level_base_[kMaxDims] = {};
  std::vector<int32_t> node_;
  std::vector<int64_t> stamp_;  // cell stamp of each node_ entry
  const int32_t* leaf_ = nullptr;
  int64_t now_ = 0;
};

}  // namespace

/// Sliding window over one summary-table segment. Entries enter when the
/// cell scan reaches their region-start key and leave past their region-end
/// key; `write_back` persists modified entries on eviction. Each entry's
/// start key is computed once when it is peeked, its end key once when its
/// group opens.
///
/// Facts with *identical regions* (common in clustered data) are merged
/// into one open group — their Γ, Δ-contributions and ccid are provably
/// identical, so the per-cell work scales with the number of distinct open
/// regions while I/O and the EDB stay per-fact.
class PassEngine::TableWindow {
 public:
  struct Member {
    int64_t index;
    FactId fact_id;
    double measure;
  };
  struct OpenGroup {
    ImpreciseRecord rec;  // representative (first member's record)
    std::vector<Member> members;
  };

  TableWindow(BufferPool* pool, const StarSchema* schema,
              TypedFile<ImpreciseRecord>* file, const TableSegment& seg,
              const SpecComparator* cmp, CellNodes* cell_nodes,
              bool write_back, bool reset_on_load, EmitStats* emit_stats)
      : pool_(pool),
        schema_(schema),
        file_(file),
        cmp_(cmp),
        cell_nodes_(cell_nodes),
        write_back_(write_back),
        reset_on_load_(reset_on_load),
        emit_stats_(emit_stats),
        key_size_(cmp->key_size()),
        cursor_(file->Scan(*pool, seg.begin, seg.end)),
        peek_key_(static_cast<size_t>(key_size_)),
        end_keys_(key_size_),
        by_region_(schema->num_dims()) {}

  /// Whether AdvanceTo(cell_key) has anything to evict or load.
  bool Due(const int32_t* cell_key) const {
    if (!open_.empty() && SpecComparator::CompareKeys(
                              end_keys_.Front(), cell_key, key_size_) < 0) {
      return true;
    }
    if (have_peek_) {
      return SpecComparator::CompareKeys(peek_key_.data(), cell_key,
                                         key_size_) <= 0;
    }
    return !cursor_.done();
  }

  /// Evicts the groups that end before `cell_key` and loads the entries
  /// that start at or before it.
  Status AdvanceTo(const int32_t* cell_key) {
    while (!open_.empty() && SpecComparator::CompareKeys(
                                 end_keys_.Front(), cell_key, key_size_) < 0) {
      IOLAP_RETURN_IF_ERROR(EvictFront());
    }
    while (true) {
      if (!have_peek_) {
        if (cursor_.done()) break;
        peek_index_ = cursor_.index();
        IOLAP_RETURN_IF_ERROR(cursor_.Next(&peek_));
        cmp_->RegionStartKey(peek_, peek_key_.data());
        have_peek_ = true;
      }
      if (SpecComparator::CompareKeys(peek_key_.data(), cell_key, key_size_) >
          0) {
        break;
      }
      if (reset_on_load_) {
        peek_.gamma = 0;
        peek_.num_cells = 0;
      }
      Member member{peek_index_, peek_.fact_id, peek_.measure};
      ++record_count_;
      if (OpenGroup* group = by_region_.Find(peek_.node)) {
        group->members.push_back(member);
      } else {
        // One segment is one summary table: every region has its levels.
        std::copy_n(peek_.level, schema_->num_dims(), levels_);
        open_.push_back(OpenGroup{peek_, {member}});
        cmp_->RegionEndKey(peek_, end_keys_.PushBack());
        by_region_.Insert(peek_.node, &open_.back());
      }
      have_peek_ = false;
    }
    return Status::Ok();
  }

  /// The unique open group covering the current cell, if any: within one
  /// summary table regions are hierarchy-aligned and disjoint, so coverage
  /// is an exact match on the cell's ancestor vector at the table's levels
  /// — an O(1) lookup instead of a scan of the window.
  OpenGroup* FindCovering() {
    if (open_.empty()) return nullptr;
    int32_t key[kMaxDims];
    for (int d = 0; d < schema_->num_dims(); ++d) {
      key[d] = cell_nodes_->Node(d, levels_[d]);
    }
    return by_region_.Find(key);
  }

  bool has_open() const { return !open_.empty(); }
  int64_t open_records() const { return record_count_; }

  /// The next unloaded entry's start key; valid while has_peek().
  bool has_peek() const { return have_peek_; }
  const int32_t* peek_key() const { return peek_key_.data(); }

  Status Finish() {
    while (!open_.empty()) IOLAP_RETURN_IF_ERROR(EvictFront());
    return Status::Ok();
  }

  /// Calls `fn` on every entry that was never loaded (used by the emit
  /// pass to account for facts past the end of the cell scan).
  template <typename Fn>
  Status DrainRemaining(Fn fn) {
    if (have_peek_) {
      IOLAP_RETURN_IF_ERROR(fn(peek_));
      have_peek_ = false;
    }
    ImpreciseRecord rec;
    while (!cursor_.done()) {
      IOLAP_RETURN_IF_ERROR(cursor_.Next(&rec));
      IOLAP_RETURN_IF_ERROR(fn(rec));
    }
    return Status::Ok();
  }

 private:
  Status EvictFront() {
    OpenGroup& group = open_.front();
    if (write_back_) {
      // All members share the group's computed state (Γ, cell count,
      // component id); identities stay per-fact.
      ImpreciseRecord rec = group.rec;
      for (const Member& m : group.members) {
        rec.fact_id = m.fact_id;
        rec.measure = m.measure;
        IOLAP_RETURN_IF_ERROR(file_->Put(*pool_, m.index, rec));
      }
    }
    if (emit_stats_ != nullptr && group.rec.gamma <= 0) {
      emit_stats_->unallocatable_facts +=
          static_cast<int64_t>(group.members.size());
    }
    record_count_ -= static_cast<int64_t>(group.members.size());
    by_region_.Erase(group.rec.node);
    end_keys_.PopFront();
    open_.pop_front();
    return Status::Ok();
  }

  BufferPool* pool_;
  const StarSchema* schema_;
  TypedFile<ImpreciseRecord>* file_;
  const SpecComparator* cmp_;
  CellNodes* cell_nodes_;
  bool write_back_;
  bool reset_on_load_;
  EmitStats* emit_stats_;
  int key_size_;
  int levels_[kMaxDims] = {};  // the table's level vector
  TypedFile<ImpreciseRecord>::Cursor cursor_;
  std::deque<OpenGroup> open_;  // deque: stable references on push/pop
  ImpreciseRecord peek_;
  std::vector<int32_t> peek_key_;
  KeyQueue end_keys_;  // parallel to open_
  RegionMap<OpenGroup> by_region_;
  int64_t peek_index_ = -1;
  bool have_peek_ = false;
  int64_t record_count_ = 0;
};

Status PassEngine::RunGamma(const std::vector<TableSegment>& tables) {
  return RunPass(PassKind::kGamma, tables, false, false, nullptr, nullptr,
                 nullptr, nullptr);
}

Status PassEngine::RunDelta(const std::vector<TableSegment>& tables,
                            bool init_delta, bool finalize, double* max_eps) {
  return RunPass(PassKind::kDelta, tables, init_delta, finalize, max_eps,
                 nullptr, nullptr, nullptr);
}

Status PassEngine::RunCcid(const std::vector<TableSegment>& tables,
                           UnionFind* uf) {
  return RunPass(PassKind::kCcid, tables, false, false, nullptr, uf, nullptr,
                 nullptr);
}

Status PassEngine::RunEmit(const std::vector<TableSegment>& tables,
                           typename TypedFile<EdbRecord>::Appender* out,
                           EmitStats* stats) {
  return RunPass(PassKind::kEmit, tables, false, false, nullptr, nullptr, out,
                 stats);
}

Status PassEngine::RunPass(PassKind kind,
                           const std::vector<TableSegment>& tables,
                           bool init_delta, bool finalize, double* max_eps,
                           UnionFind* uf,
                           typename TypedFile<EdbRecord>::Appender* out,
                           EmitStats* stats) {
  const bool mutate_cells = kind == PassKind::kDelta || kind == PassKind::kCcid;
  const bool write_back_entries =
      kind == PassKind::kGamma || kind == PassKind::kCcid;
  const bool reset_on_load = kind == PassKind::kGamma;

  const int64_t begin = cell_begin_;
  const int64_t end = cell_end_ < 0 ? cells_->size() : cell_end_;

  // Per cell, the sort key is computed once and the ancestor nodes once
  // per (dimension, level) the open windows probe.
  const int key_size = cmp_->key_size();
  std::vector<int32_t> cell_key(static_cast<size_t>(key_size));
  CellNodes cell_nodes(schema_);

  std::vector<TableWindow> windows;
  windows.reserve(tables.size());
  for (const TableSegment& seg : tables) {
    windows.emplace_back(pool_, schema_, imprecise_, seg, cmp_, &cell_nodes,
                         write_back_entries, reset_on_load,
                         kind == PassKind::kEmit ? stats : nullptr);
  }

  // Active windows in segment order; the first cell visits every window so
  // the initial peeks load as a visit-every-window scan loads them.
  // Dormant windows (nothing open, a peeked entry ahead) wait in a min-heap
  // on that entry's start key, ties by window index.
  std::vector<int32_t> active(windows.size());
  for (size_t w = 0; w < windows.size(); ++w) {
    active[w] = static_cast<int32_t>(w);
  }
  std::vector<int32_t> next_active, woken, merged;
  std::vector<int32_t> dormant;
  auto later = [&](int32_t a, int32_t b) {
    const int c = SpecComparator::CompareKeys(windows[a].peek_key(),
                                              windows[b].peek_key(), key_size);
    return c != 0 ? c > 0 : a > b;
  };

  auto cursor = mutate_cells ? cells_->MutableScan(*pool_, begin, end)
                             : cells_->Scan(*pool_, begin, end);

  CellRecord cell;
  std::vector<int32_t> touched_ccids;               // scratch for kCcid
  std::vector<TableWindow::OpenGroup*> covering;    // scratch for kCcid
  while (!cursor.done()) {
    IOLAP_RETURN_IF_ERROR(cursor.Read(&cell));
    bool cell_modified = false;
    ++stats_.cells;

    if (kind == PassKind::kDelta && init_delta) {
      cell.delta_cur = cell.delta0;
      cell_modified = true;
    }

    cmp_->CellKey(cell.leaf, cell_key.data());
    cell_nodes.Reset(cell.leaf);

    // Wake the dormant windows whose next entry starts at or before this
    // cell and merge them into the active list in segment order.
    while (!dormant.empty() &&
           SpecComparator::CompareKeys(windows[dormant.front()].peek_key(),
                                       cell_key.data(), key_size) <= 0) {
      std::pop_heap(dormant.begin(), dormant.end(), later);
      woken.push_back(dormant.back());
      dormant.pop_back();
    }
    if (!woken.empty()) {
      std::sort(woken.begin(), woken.end());
      merged.clear();
      std::merge(active.begin(), active.end(), woken.begin(), woken.end(),
                 std::back_inserter(merged));
      active.swap(merged);
      woken.clear();
    }

    int64_t open_total = 0;
    touched_ccids.clear();
    covering.clear();
    bool covered = false;
    next_active.clear();
    for (int32_t w : active) {
      TableWindow& window = windows[static_cast<size_t>(w)];
      if (window.Due(cell_key.data())) {
        IOLAP_RETURN_IF_ERROR(window.AdvanceTo(cell_key.data()));
      }
      ++stats_.window_visits;
      open_total += window.open_records();
      if (window.has_open()) {
        next_active.push_back(w);
      } else if (window.has_peek()) {
        dormant.push_back(w);
        std::push_heap(dormant.begin(), dormant.end(), later);
      }  // else exhausted: never visited again
      TableWindow::OpenGroup* group = window.FindCovering();
      if (group == nullptr) continue;
      ++stats_.covering_hits;
      covered = true;
      const double weight = static_cast<double>(group->members.size());
      switch (kind) {
        case PassKind::kGamma:
          group->rec.gamma += cell.delta_prev;
          ++group->rec.num_cells;
          break;
        case PassKind::kDelta:
          if (group->rec.gamma > 0) {
            cell.delta_cur += weight * cell.delta_prev / group->rec.gamma;
            cell_modified = true;
          }
          break;
        case PassKind::kCcid:
          if (group->rec.ccid >= 0) touched_ccids.push_back(group->rec.ccid);
          covering.push_back(group);
          break;
        case PassKind::kEmit:
          if (group->rec.gamma > 0 && cell.delta_prev > 0) {
            EdbRecord edb;
            edb.weight = cell.delta_prev / group->rec.gamma;
            std::memcpy(edb.leaf, cell.leaf, sizeof(edb.leaf));
            for (const auto& member : group->members) {
              edb.fact_id = member.fact_id;
              edb.measure = member.measure;
              IOLAP_RETURN_IF_ERROR(out->Append(edb));
              ++stats->edges_emitted;
            }
          }
          break;
      }
    }
    active.swap(next_active);
    peak_window_records_ = std::max(peak_window_records_, open_total);

    if (kind == PassKind::kCcid && covered) {
      if (cell.ccid >= 0) touched_ccids.push_back(cell.ccid);
      int32_t id;
      if (touched_ccids.empty()) {
        id = uf->Add();
      } else {
        id = touched_ccids[0];
        for (size_t i = 1; i < touched_ccids.size(); ++i) {
          uf->Union(id, touched_ccids[i]);
        }
      }
      if (cell.ccid < 0) {
        cell.ccid = id;
        cell_modified = true;
      }
      for (TableWindow::OpenGroup* group : covering) {
        if (group->rec.ccid < 0) group->rec.ccid = id;
      }
    }

    if (kind == PassKind::kDelta) {
      if (covered) {
        cell.overlapped = 1;
        cell_modified = true;
      }
      if (finalize) {
        double eps;
        if (cell.delta_prev != 0) {
          eps = std::fabs(cell.delta_cur - cell.delta_prev) /
                std::fabs(cell.delta_prev);
        } else {
          eps = cell.delta_cur == 0 ? 0.0 : 1.0;
        }
        if (max_eps != nullptr) *max_eps = std::max(*max_eps, eps);
        cell.delta_prev = cell.delta_cur;
        cell_modified = true;
      }
    }

    if (cell_modified) {
      IOLAP_RETURN_IF_ERROR(cursor.Write(cell));
    }
    cursor.Advance();
  }

  for (TableWindow& window : windows) {
    IOLAP_RETURN_IF_ERROR(window.Finish());
    if (kind == PassKind::kEmit) {
      IOLAP_RETURN_IF_ERROR(
          window.DrainRemaining([&](const ImpreciseRecord& rec) -> Status {
            if (rec.gamma <= 0) ++stats->unallocatable_facts;
            return Status::Ok();
          }));
    }
  }
  return Status::Ok();
}

}  // namespace iolap
