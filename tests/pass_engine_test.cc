// The window engine (alloc/pass) against an in-memory all-pairs oracle.
// Seeded datasets with ALL allowed in the hierarchies, a pool small enough
// that the summary tables pack into several groups, and both the whole cell
// table and a SetCellRange slice. Every pass is compared with a reference
// that decides coverage by RegionCovers over every (cell, entry) pair:
// Γ and cell counts, Δ and `overlapped`, the ccid partition, the emitted
// EDB rows, the unallocatable count, and the peak window size.

#include "alloc/pass.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "alloc/algorithms.h"
#include "alloc/preprocess.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "graph/union_find.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

Result<StarSchema> MakeSchema() {
  std::vector<Hierarchy> dims;
  IOLAP_ASSIGN_OR_RETURN(Hierarchy d0, HierarchyBuilder::Uniform("D0", {4, 5}));
  IOLAP_ASSIGN_OR_RETURN(Hierarchy d1,
                         HierarchyBuilder::Uniform("D1", {3, 3, 3}));
  IOLAP_ASSIGN_OR_RETURN(Hierarchy d2, HierarchyBuilder::Uniform("D2", {5, 4}));
  dims.push_back(d0);
  dims.push_back(d1);
  dims.push_back(d2);
  return StarSchema::Create(std::move(dims));
}

constexpr int64_t kPoolPages = 10;

template <typename T>
std::vector<T> ReadAll(BufferPool& pool, const TypedFile<T>& file) {
  std::vector<T> out;
  auto cursor = file.Scan(pool);
  T rec;
  while (!cursor.done()) {
    EXPECT_TRUE(cursor.Next(&rec).ok());
    out.push_back(rec);
  }
  return out;
}

/// In-memory mirror of the cell and imprecise files, advanced by reference
/// versions of the engine's passes over cells [lo, hi).
class Reference {
 public:
  Reference(const StarSchema* schema, std::vector<CellRecord> cells,
            std::vector<ImpreciseRecord> entries, int64_t lo, int64_t hi)
      : schema_(schema),
        cmp_(schema, SortSpec::Canonical(*schema)),
        cells_(std::move(cells)),
        entries_(std::move(entries)),
        lo_(lo),
        hi_(hi) {}

  const std::vector<CellRecord>& cells() const { return cells_; }
  const std::vector<ImpreciseRecord>& entries() const { return entries_; }

  bool Covers(const ImpreciseRecord& r, const CellRecord& c) const {
    return RegionCovers(*schema_, r.node, c.leaf);
  }

  /// The engine loads an entry once the scan reaches its start key; with
  /// cells [lo, hi) that is every entry starting at or before cell hi-1.
  bool Loaded(const ImpreciseRecord& r) const {
    if (hi_ <= lo_) return false;
    return Compare(StartKey(r), CellKey(cells_[hi_ - 1])) <= 0;
  }

  void Gamma(const std::vector<TableSegment>& group) {
    for (const TableSegment& seg : group) {
      for (int64_t i = seg.begin; i < seg.end; ++i) {
        ImpreciseRecord& r = entries_[i];
        if (!Loaded(r)) continue;
        r.gamma = 0;
        r.num_cells = 0;
        for (int64_t c = lo_; c < hi_; ++c) {
          if (!Covers(r, cells_[c])) continue;
          r.gamma += cells_[c].delta_prev;
          ++r.num_cells;
        }
      }
    }
  }

  /// One Block iteration's Δ passes over `groups` (Γ already current).
  double Delta(const std::vector<std::vector<TableSegment>>& groups) {
    double max_eps = 0;
    for (int64_t c = lo_; c < hi_; ++c) {
      CellRecord& cell = cells_[c];
      cell.delta_cur = cell.delta0;
      for (const auto& group : groups) {
        for (const TableSegment& seg : group) {
          for (int64_t i = seg.begin; i < seg.end; ++i) {
            const ImpreciseRecord& r = entries_[i];
            if (!Covers(r, cell)) continue;
            cell.overlapped = 1;
            if (r.gamma > 0) cell.delta_cur += cell.delta_prev / r.gamma;
          }
        }
      }
      double eps;
      if (cell.delta_prev != 0) {
        eps = std::fabs(cell.delta_cur - cell.delta_prev) /
              std::fabs(cell.delta_prev);
      } else {
        eps = cell.delta_cur == 0 ? 0.0 : 1.0;
      }
      max_eps = std::max(max_eps, eps);
      cell.delta_prev = cell.delta_cur;
    }
    return max_eps;
  }

  /// EDB rows of the emission pass, sorted, plus the unallocatable count.
  std::vector<EdbRecord> Emit(
      const std::vector<std::vector<TableSegment>>& groups,
      int64_t* unallocatable) const {
    std::vector<EdbRecord> rows;
    *unallocatable = 0;
    for (const auto& group : groups) {
      for (const TableSegment& seg : group) {
        for (int64_t i = seg.begin; i < seg.end; ++i) {
          const ImpreciseRecord& r = entries_[i];
          if (r.gamma <= 0) ++*unallocatable;
          for (int64_t c = lo_; c < hi_; ++c) {
            const CellRecord& cell = cells_[c];
            if (r.gamma <= 0 || cell.delta_prev <= 0 || !Covers(r, cell)) {
              continue;
            }
            EdbRecord edb;
            edb.fact_id = r.fact_id;
            edb.measure = r.measure;
            edb.weight = cell.delta_prev / r.gamma;
            std::memcpy(edb.leaf, cell.leaf, sizeof(edb.leaf));
            rows.push_back(edb);
          }
        }
      }
    }
    SortRows(&rows);
    return rows;
  }

  /// Components of the coverage graph over cells [lo, hi) and the groups'
  /// entries: a root per node, -1 for a node without edges. Nodes are the
  /// cells' indexes, then entries_.size() + entry index.
  std::vector<int32_t> Components(
      const std::vector<std::vector<TableSegment>>& groups) const {
    const int64_t n = static_cast<int64_t>(cells_.size() + entries_.size());
    UnionFind uf(static_cast<int32_t>(n));
    std::vector<bool> has_edge(static_cast<size_t>(n), false);
    for (const auto& group : groups) {
      for (const TableSegment& seg : group) {
        for (int64_t i = seg.begin; i < seg.end; ++i) {
          const int32_t e = static_cast<int32_t>(cells_.size() + i);
          for (int64_t c = lo_; c < hi_; ++c) {
            if (!Covers(entries_[i], cells_[c])) continue;
            uf.Union(static_cast<int32_t>(c), e);
            has_edge[c] = has_edge[e] = true;
          }
        }
      }
    }
    std::vector<int32_t> root(static_cast<size_t>(n), -1);
    for (int64_t i = 0; i < n; ++i) {
      if (has_edge[i]) root[i] = uf.Find(static_cast<int32_t>(i));
    }
    return root;
  }

  /// Largest number of entries open at once in one group's pass: after the
  /// visit of cell i, an entry is open if it started at or before cell i
  /// and either ends at or after it or was loaded at cell i itself (front
  /// eviction runs before the loads).
  int64_t PeakOpen(const std::vector<TableSegment>& group) const {
    int64_t peak = 0;
    for (int64_t c = lo_; c < hi_; ++c) {
      const std::vector<int32_t> key = CellKey(cells_[c]);
      int64_t open = 0;
      for (const TableSegment& seg : group) {
        for (int64_t i = seg.begin; i < seg.end; ++i) {
          const std::vector<int32_t> start = StartKey(entries_[i]);
          if (Compare(start, key) > 0) continue;
          const bool new_here =
              c == lo_ || Compare(start, CellKey(cells_[c - 1])) > 0;
          if (new_here || Compare(EndKey(entries_[i]), key) >= 0) ++open;
        }
      }
      peak = std::max(peak, open);
    }
    return peak;
  }

  static void SortRows(std::vector<EdbRecord>* rows) {
    std::sort(rows->begin(), rows->end(),
              [](const EdbRecord& a, const EdbRecord& b) {
                return std::memcmp(&a, &b, sizeof(EdbRecord)) < 0;
              });
  }

 private:
  std::vector<int32_t> CellKey(const CellRecord& c) const {
    std::vector<int32_t> key(static_cast<size_t>(cmp_.key_size()));
    cmp_.CellKey(c.leaf, key.data());
    return key;
  }
  std::vector<int32_t> StartKey(const ImpreciseRecord& r) const {
    std::vector<int32_t> key(static_cast<size_t>(cmp_.key_size()));
    cmp_.RegionStartKey(r, key.data());
    return key;
  }
  std::vector<int32_t> EndKey(const ImpreciseRecord& r) const {
    std::vector<int32_t> key(static_cast<size_t>(cmp_.key_size()));
    cmp_.RegionEndKey(r, key.data());
    return key;
  }
  static int Compare(const std::vector<int32_t>& a,
                     const std::vector<int32_t>& b) {
    return SpecComparator::CompareKeys(a.data(), b.data(),
                                       static_cast<int>(a.size()));
  }

  const StarSchema* schema_;
  SpecComparator cmp_;
  std::vector<CellRecord> cells_;
  std::vector<ImpreciseRecord> entries_;
  int64_t lo_;
  int64_t hi_;
};

struct OracleParam {
  uint64_t seed;
  bool slice;  // cells [n/4, 3n/4) instead of the whole table
};

std::string OracleName(const ::testing::TestParamInfo<OracleParam>& info) {
  return "s" + std::to_string(info.param.seed) +
         (info.param.slice ? "_slice" : "_all");
}

class PassEngineOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(PassEngineOracle, EveryPassMatchesAllPairsReference) {
  const OracleParam& param = GetParam();
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeSchema());
  StorageEnv env(MakeTempDir(), kPoolPages);
  BufferPool& pool = env.pool();
  DatasetSpec spec;
  spec.num_facts = 2500;
  spec.imprecise_fraction = 0.3;
  spec.allow_all = true;
  spec.all_fraction = 0.02;
  spec.anchored = param.seed % 2 == 0;  // unanchored: some facts cover no cell
  spec.seed = param.seed;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(PreparedDataset data,
                             PrepareDataset(env, schema, &facts, options));
  const auto groups = PackTableGroups(data, kPoolPages);
  ASSERT_GE(groups.size(), 3u);

  // Nontrivial Δ(t-1): random positive values with some zeros.
  Rng rng(param.seed * 7919);
  {
    auto cursor = data.cells.MutableScan(pool);
    CellRecord cell;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Read(&cell));
      cell.delta_prev = rng.Bernoulli(0.1) ? 0.0 : 0.5 + rng.NextDouble();
      IOLAP_ASSERT_OK(cursor.Write(cell));
      cursor.Advance();
    }
  }

  const int64_t n = data.cells.size();
  const int64_t lo = param.slice ? n / 4 : 0;
  const int64_t hi = param.slice ? 3 * n / 4 : n;
  SpecComparator canonical(&schema, SortSpec::Canonical(schema));
  PassEngine engine(&pool, &schema, &data.cells, &data.imprecise, &canonical);
  if (param.slice) engine.SetCellRange(lo, hi);
  Reference ref(&schema, ReadAll(pool, data.cells),
                ReadAll(pool, data.imprecise), lo, hi);

  auto expect_entries_match = [&](const char* pass) {
    const std::vector<ImpreciseRecord> got = ReadAll(pool, data.imprecise);
    ASSERT_EQ(got.size(), ref.entries().size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].gamma, ref.entries()[i].gamma) << pass << " entry " << i;
      EXPECT_EQ(got[i].num_cells, ref.entries()[i].num_cells)
          << pass << " entry " << i;
    }
  };

  // Γ pass.
  for (const auto& group : groups) {
    IOLAP_ASSERT_OK(engine.RunGamma(group));
    ref.Gamma(group);
  }
  expect_entries_match("gamma");
  const PassStats gamma_stats = engine.stats();
  EXPECT_EQ(gamma_stats.cells, (hi - lo) * static_cast<int64_t>(groups.size()));
  EXPECT_GT(gamma_stats.covering_hits, 0);
  EXPECT_LE(gamma_stats.covering_hits, gamma_stats.window_visits);

  // Δ passes of one iteration.
  double max_eps = 0;
  for (size_t g = 0; g < groups.size(); ++g) {
    IOLAP_ASSERT_OK(engine.RunDelta(groups[g], g == 0,
                                    g + 1 == groups.size(), &max_eps));
  }
  const double ref_eps = ref.Delta(groups);
  EXPECT_NEAR(max_eps, ref_eps, 1e-9 * std::max(1.0, ref_eps));
  {
    const std::vector<CellRecord> got = ReadAll(pool, data.cells);
    ASSERT_EQ(got.size(), ref.cells().size());
    for (size_t c = 0; c < got.size(); ++c) {
      const CellRecord& want = ref.cells()[c];
      EXPECT_NEAR(got[c].delta_prev, want.delta_prev,
                  1e-12 * std::max(1.0, std::fabs(want.delta_prev)))
          << "cell " << c;
      EXPECT_EQ(got[c].overlapped, want.overlapped) << "cell " << c;
    }
    // Continue from the engine's Δ so Γ and the EDB compare exactly.
    ref = Reference(&schema, got, ref.entries(), lo, hi);
  }

  // Γ against the new Δ, then emission.
  for (const auto& group : groups) {
    IOLAP_ASSERT_OK(engine.RunGamma(group));
    ref.Gamma(group);
  }
  expect_entries_match("gamma after delta");
  IOLAP_ASSERT_OK_AND_ASSIGN(auto edb,
                             TypedFile<EdbRecord>::Create(env.disk(), "edb"));
  EmitStats emit;
  {
    auto appender = edb.MakeAppender(pool);
    for (const auto& group : groups) {
      IOLAP_ASSERT_OK(engine.RunEmit(group, &appender, &emit));
    }
    appender.Close();
  }
  int64_t ref_unallocatable = 0;
  const std::vector<EdbRecord> want_rows = ref.Emit(groups, &ref_unallocatable);
  std::vector<EdbRecord> got_rows = ReadAll(pool, edb);
  Reference::SortRows(&got_rows);
  ASSERT_EQ(got_rows.size(), want_rows.size());
  EXPECT_EQ(emit.edges_emitted, static_cast<int64_t>(want_rows.size()));
  for (size_t i = 0; i < got_rows.size(); ++i) {
    EXPECT_EQ(std::memcmp(&got_rows[i], &want_rows[i], sizeof(EdbRecord)), 0)
        << "EDB row " << i;
  }
  EXPECT_EQ(emit.unallocatable_facts, ref_unallocatable);

  // Component identification: same partition of the coverage graph.
  UnionFind uf(0);
  for (const auto& group : groups) IOLAP_ASSERT_OK(engine.RunCcid(group, &uf));
  {
    const std::vector<int32_t> want = ref.Components(groups);
    const std::vector<CellRecord> cells = ReadAll(pool, data.cells);
    const std::vector<ImpreciseRecord> entries = ReadAll(pool, data.imprecise);
    std::vector<int32_t> got(want.size(), -1);
    for (size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].ccid >= 0) got[c] = uf.Canonical(cells[c].ccid);
    }
    for (size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].ccid >= 0) {
        got[cells.size() + i] = uf.Canonical(entries[i].ccid);
      }
    }
    std::map<int32_t, int32_t> got_to_want, want_to_got;
    int64_t mismatches = 0;
    for (size_t i = 0; i < want.size(); ++i) {
      if ((got[i] < 0) != (want[i] < 0)) {
        ++mismatches;
        continue;
      }
      if (want[i] < 0) continue;
      auto [a, fresh_a] = got_to_want.emplace(got[i], want[i]);
      auto [b, fresh_b] = want_to_got.emplace(want[i], got[i]);
      if (a->second != want[i] || b->second != got[i]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_GT(got_to_want.size(), 1u);
  }

  // Every pass over a group opens the same entries, so the engine's peak
  // is the largest per-group reference peak.
  int64_t want_peak = 0;
  for (const auto& group : groups) {
    want_peak = std::max(want_peak, ref.PeakOpen(group));
  }
  EXPECT_EQ(engine.peak_window_records(), want_peak);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassEngineOracle,
                         ::testing::Values(OracleParam{31, false},
                                           OracleParam{32, false},
                                           OracleParam{33, true},
                                           OracleParam{34, true}),
                         OracleName);

}  // namespace
}  // namespace iolap
