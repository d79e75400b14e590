#ifndef IOLAP_MODEL_SORT_KEY_H_
#define IOLAP_MODEL_SORT_KEY_H_

#include <cstdint>
#include <vector>

#include "model/records.h"
#include "model/schema.h"

namespace iolap {

/// Packs up to `width_bits` of a non-negative value below the already-used
/// high bits of a normalized key (see `SorterKeyPrefix` in
/// storage/external_sort.h). Truncation keeps the prefix monotone: dropped
/// low bits only turn "less" into "equal", never reorder.
inline void PackKeyBits(uint64_t value, int width_bits, uint64_t* key,
                        int* bits_left) {
  if (*bits_left <= 0) return;
  if (width_bits <= *bits_left) {
    *bits_left -= width_bits;
    *key |= value << *bits_left;
  } else {
    *key |= value >> (width_bits - *bits_left);
    *bits_left = 0;
  }
}

/// One term of a sort order: "the ancestor ordinal of dimension `dim` at
/// hierarchy level `level`". Because leaves are DFS-numbered, ancestor
/// ordinals are monotone in leaf id, so any term list yields a total order
/// on cells under which hierarchy-aligned regions behave predictably.
struct SortTerm {
  int8_t dim;
  int8_t level;
};

/// A sort order L: an ordered list of SortTerms, always refined down to the
/// leaf level of every dimension so cell keys are total.
class SortSpec {
 public:
  /// Canonical order: leaf ids in dimension order. The cell summary table C
  /// is materialized in this order, and Block runs entirely in it.
  static SortSpec Canonical(const StarSchema& schema) {
    SortSpec spec;
    for (int d = 0; d < schema.num_dims(); ++d) {
      spec.terms_.push_back(SortTerm{static_cast<int8_t>(d), 1});
    }
    return spec;
  }

  /// Chain order (Theorem 5): given the chain's level vectors from most
  /// imprecise to most precise, emits ancestor terms top-down so that every
  /// summary table in the chain has contiguous regions in the cell order.
  static SortSpec ForChain(const StarSchema& schema,
                           const std::vector<LevelVector>& descending) {
    SortSpec spec;
    std::vector<int> current(schema.num_dims(), 127);  // "not yet emitted"
    for (const LevelVector& v : descending) {
      for (int d = 0; d < schema.num_dims(); ++d) {
        if (v[d] < current[d]) {
          spec.terms_.push_back(
              SortTerm{static_cast<int8_t>(d), static_cast<int8_t>(v[d])});
          current[d] = v[d];
        }
      }
    }
    for (int d = 0; d < schema.num_dims(); ++d) {
      if (current[d] > 1) {
        spec.terms_.push_back(SortTerm{static_cast<int8_t>(d), 1});
      }
    }
    return spec;
  }

  const std::vector<SortTerm>& terms() const { return terms_; }

 private:
  std::vector<SortTerm> terms_;
};

/// Comparators under a SortSpec. Regions (imprecise facts) are compared by
/// their key *interval*: `start` uses each region's first leaf per
/// dimension, `end` its last. Within a chain order a region is exactly a
/// key-prefix block, so these interval comparisons drive the one-record
/// cursors of the Independent algorithm.
class SpecComparator {
 public:
  SpecComparator(const StarSchema* schema, SortSpec spec)
      : schema_(schema), spec_(std::move(spec)) {}

  const SortSpec& spec() const { return spec_; }

  int32_t CellTermValue(const SortTerm& t, const int32_t* leaf) const {
    return schema_->dim(t.dim).LeafAncestorOrdinal(leaf[t.dim], t.level);
  }

  /// Term value at the low corner of a region.
  int32_t RegionStartTermValue(const SortTerm& t, const int32_t* node,
                               const uint8_t* level) const {
    const Hierarchy& h = schema_->dim(t.dim);
    if (t.level >= level[t.dim]) {
      return h.ordinal(h.AncestorAtLevel(node[t.dim], t.level));
    }
    return h.LeafAncestorOrdinal(h.leaf_begin(node[t.dim]), t.level);
  }

  /// Term value at the high corner of a region.
  int32_t RegionEndTermValue(const SortTerm& t, const int32_t* node,
                             const uint8_t* level) const {
    const Hierarchy& h = schema_->dim(t.dim);
    if (t.level >= level[t.dim]) {
      return h.ordinal(h.AncestorAtLevel(node[t.dim], t.level));
    }
    return h.LeafAncestorOrdinal(h.leaf_end(node[t.dim]) - 1, t.level);
  }

  bool CellLess(const CellRecord& a, const CellRecord& b) const {
    for (const SortTerm& t : spec_.terms()) {
      int32_t va = CellTermValue(t, a.leaf);
      int32_t vb = CellTermValue(t, b.leaf);
      if (va != vb) return va < vb;
    }
    return false;
  }

  /// Orders imprecise entries by region start key.
  bool EntryLess(const ImpreciseRecord& a, const ImpreciseRecord& b) const {
    for (const SortTerm& t : spec_.terms()) {
      int32_t va = RegionStartTermValue(t, a.node, a.level);
      int32_t vb = RegionStartTermValue(t, b.node, b.level);
      if (va != vb) return va < vb;
    }
    return false;
  }

  /// Number of values in a key under this spec (one per term).
  int key_size() const { return static_cast<int>(spec_.terms().size()); }

  /// Materialized keys: one term value per sort term, written to `out`
  /// (key_size() values). The window engine computes each key once and
  /// compares keys with CompareKeys instead of re-deriving term values per
  /// comparison.
  void CellKey(const int32_t* leaf, int32_t* out) const {
    for (const SortTerm& t : spec_.terms()) *out++ = CellTermValue(t, leaf);
  }
  void RegionStartKey(const ImpreciseRecord& r, int32_t* out) const {
    for (const SortTerm& t : spec_.terms()) {
      *out++ = RegionStartTermValue(t, r.node, r.level);
    }
  }
  void RegionEndKey(const ImpreciseRecord& r, int32_t* out) const {
    for (const SortTerm& t : spec_.terms()) {
      *out++ = RegionEndTermValue(t, r.node, r.level);
    }
  }

  /// < 0 / 0 / > 0 comparing two materialized keys of `n` values.
  static int CompareKeys(const int32_t* a, const int32_t* b, int n) {
    for (int i = 0; i < n; ++i) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
  }

 private:
  const StarSchema* schema_;
  SortSpec spec_;
};

/// `SpecComparator::CellLess` as a sorter comparator, with a normalized key
/// prefix over the first two sort terms (term ordinals are non-negative
/// int32s, so packing two of them big-end-first refines the term order).
class CellSpecLess {
 public:
  explicit CellSpecLess(const SpecComparator* cmp) : cmp_(cmp) {}

  bool operator()(const CellRecord& a, const CellRecord& b) const {
    return cmp_->CellLess(a, b);
  }

  uint64_t KeyPrefix(const CellRecord& a) const {
    const std::vector<SortTerm>& terms = cmp_->spec().terms();
    uint64_t key = 0;
    int bits = 64;
    for (size_t t = 0; t < terms.size() && bits > 0; ++t) {
      PackKeyBits(
          static_cast<uint32_t>(cmp_->CellTermValue(terms[t], a.leaf)), 32,
          &key, &bits);
    }
    return key;
  }

 private:
  const SpecComparator* cmp_;
};

/// `SpecComparator::EntryLess` (region start key order) as a sorter
/// comparator with a normalized key prefix, built like CellSpecLess.
class EntrySpecLess {
 public:
  explicit EntrySpecLess(const SpecComparator* cmp) : cmp_(cmp) {}

  bool operator()(const ImpreciseRecord& a, const ImpreciseRecord& b) const {
    return cmp_->EntryLess(a, b);
  }

  uint64_t KeyPrefix(const ImpreciseRecord& a) const {
    const std::vector<SortTerm>& terms = cmp_->spec().terms();
    uint64_t key = 0;
    int bits = 64;
    for (size_t t = 0; t < terms.size() && bits > 0; ++t) {
      PackKeyBits(static_cast<uint32_t>(
                      cmp_->RegionStartTermValue(terms[t], a.node, a.level)),
                  32, &key, &bits);
    }
    return key;
  }

 private:
  const SpecComparator* cmp_;
};

/// Orders raw facts into "summary table order" (Section 4.1): by level
/// vector (so precise facts, all-ones, come first and each summary table is
/// a contiguous segment), then by region start in canonical order (so the
/// precise prefix materializes C already canonically sorted).
class SummaryOrderLess {
 public:
  explicit SummaryOrderLess(const StarSchema* schema) : schema_(schema) {}

  bool operator()(const FactRecord& a, const FactRecord& b) const {
    for (int d = 0; d < schema_->num_dims(); ++d) {
      if (a.level[d] != b.level[d]) return a.level[d] < b.level[d];
    }
    for (int d = 0; d < schema_->num_dims(); ++d) {
      const Hierarchy& h = schema_->dim(d);
      LeafId la = h.leaf_begin(a.node[d]);
      LeafId lb = h.leaf_begin(b.node[d]);
      if (la != lb) return la < lb;
    }
    return a.fact_id < b.fact_id;
  }

  /// Normalized key: the level vector (one byte per dimension, the first
  /// comparison loop above), then as many leaf-begin values as still fit.
  uint64_t KeyPrefix(const FactRecord& a) const {
    uint64_t key = 0;
    int bits = 64;
    const int k = schema_->num_dims();
    for (int d = 0; d < k && bits > 0; ++d) {
      PackKeyBits(a.level[d], 8, &key, &bits);
    }
    for (int d = 0; d < k && bits > 0; ++d) {
      uint32_t leaf =
          static_cast<uint32_t>(schema_->dim(d).leaf_begin(a.node[d]));
      PackKeyBits(leaf, 32, &key, &bits);
    }
    return key;
  }

 private:
  const StarSchema* schema_;
};

}  // namespace iolap

#endif  // IOLAP_MODEL_SORT_KEY_H_
