#include "model/sort_key.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "datagen/table2.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

StarSchema MakeSchema() {
  std::vector<Hierarchy> dims;
  auto d0 = HierarchyBuilder::Uniform("D0", {3, 2});
  auto d1 = HierarchyBuilder::Uniform("D1", {2, 2, 2});
  EXPECT_TRUE(d0.ok());
  EXPECT_TRUE(d1.ok());
  dims.push_back(std::move(d0).value());
  dims.push_back(std::move(d1).value());
  auto schema = StarSchema::Create(std::move(dims));
  EXPECT_TRUE(schema.ok());
  return std::move(schema).value();
}

CellRecord Cell(int32_t a, int32_t b) {
  CellRecord c;
  c.leaf[0] = a;
  c.leaf[1] = b;
  return c;
}

ImpreciseRecord Region(const StarSchema& schema, NodeId n0, NodeId n1) {
  ImpreciseRecord r;
  r.node[0] = n0;
  r.node[1] = n1;
  r.level[0] = static_cast<uint8_t>(schema.dim(0).level(n0));
  r.level[1] = static_cast<uint8_t>(schema.dim(1).level(n1));
  return r;
}

TEST(SortSpecTest, CanonicalIsLeafLex) {
  StarSchema schema = MakeSchema();
  SpecComparator cmp(&schema, SortSpec::Canonical(schema));
  EXPECT_TRUE(cmp.CellLess(Cell(0, 5), Cell(1, 0)));
  EXPECT_TRUE(cmp.CellLess(Cell(1, 0), Cell(1, 1)));
  EXPECT_FALSE(cmp.CellLess(Cell(1, 1), Cell(1, 1)));
  EXPECT_FALSE(cmp.CellLess(Cell(2, 0), Cell(1, 7)));
}

TEST(SortSpecTest, ChainSpecEmitsTopDownTerms) {
  StarSchema schema = MakeSchema();
  // Chain: <2,3> above <1,2> (D0: 3 levels, D1: 4 levels).
  std::vector<LevelVector> descending;
  LevelVector top{};
  top.fill(1);
  top[0] = 2;
  top[1] = 3;
  LevelVector bottom{};
  bottom.fill(1);
  bottom[0] = 1;
  bottom[1] = 2;
  descending.push_back(top);
  descending.push_back(bottom);
  SortSpec spec = SortSpec::ForChain(schema, descending);
  // Expect terms (0,2),(1,3) then (0,1),(1,2) then (1,1).
  ASSERT_EQ(spec.terms().size(), 5u);
  EXPECT_EQ(spec.terms()[0].dim, 0);
  EXPECT_EQ(spec.terms()[0].level, 2);
  EXPECT_EQ(spec.terms()[1].dim, 1);
  EXPECT_EQ(spec.terms()[1].level, 3);
  EXPECT_EQ(spec.terms()[2].dim, 0);
  EXPECT_EQ(spec.terms()[2].level, 1);
  EXPECT_EQ(spec.terms()[3].dim, 1);
  EXPECT_EQ(spec.terms()[3].level, 2);
  EXPECT_EQ(spec.terms()[4].dim, 1);
  EXPECT_EQ(spec.terms()[4].level, 1);
}

// The load/evict window invariant: a region covers a cell only if the
// cell's key lies within [region start key, region end key] — for every
// spec (Theorem 3/5's machinery).
TEST(SortSpecTest, CoverageImpliesKeyIntervalContainment) {
  StarSchema schema = MakeSchema();
  Rng rng(5);
  std::vector<SortSpec> specs;
  specs.push_back(SortSpec::Canonical(schema));
  {
    LevelVector v{};
    v.fill(1);
    v[0] = 2;
    v[1] = 2;
    specs.push_back(SortSpec::ForChain(schema, {v}));
  }
  for (const SortSpec& spec : specs) {
    SpecComparator cmp(&schema, spec);
    for (int trial = 0; trial < 500; ++trial) {
      NodeId n0 = static_cast<NodeId>(rng.Uniform(schema.dim(0).num_nodes()));
      NodeId n1 = static_cast<NodeId>(rng.Uniform(schema.dim(1).num_nodes()));
      ImpreciseRecord r = Region(schema, n0, n1);
      CellRecord c = Cell(static_cast<int32_t>(
                              rng.Uniform(schema.dim(0).num_leaves())),
                          static_cast<int32_t>(
                              rng.Uniform(schema.dim(1).num_leaves())));
      if (RegionCovers(schema, r.node, c.leaf)) {
        const int n = cmp.key_size();
        std::vector<int32_t> start(n), end(n), cell(n);
        cmp.RegionStartKey(r, start.data());
        cmp.RegionEndKey(r, end.data());
        cmp.CellKey(c.leaf, cell.data());
        EXPECT_LE(SpecComparator::CompareKeys(start.data(), cell.data(), n), 0);
        EXPECT_GE(SpecComparator::CompareKeys(end.data(), cell.data(), n), 0);
      }
    }
  }
}

// Chain contiguity (Theorem 5): under a chain's sort order, each summary
// table in the chain has *contiguous* regions — cells covered by one
// region form a contiguous run of the sorted cell sequence.
TEST(SortSpecTest, ChainOrderMakesRegionsContiguous) {
  StarSchema schema = MakeSchema();
  LevelVector top{};
  top.fill(1);
  top[0] = 3;  // ALL in D0
  top[1] = 3;
  LevelVector mid{};
  mid.fill(1);
  mid[0] = 2;
  mid[1] = 3;
  LevelVector low{};
  low.fill(1);
  low[0] = 2;
  low[1] = 2;
  SortSpec spec = SortSpec::ForChain(schema, {top, mid, low});
  SpecComparator cmp(&schema, spec);

  // All cells, sorted by the chain spec.
  std::vector<CellRecord> cells;
  for (int32_t a = 0; a < schema.dim(0).num_leaves(); ++a) {
    for (int32_t b = 0; b < schema.dim(1).num_leaves(); ++b) {
      cells.push_back(Cell(a, b));
    }
  }
  std::sort(cells.begin(), cells.end(),
            [&](const CellRecord& x, const CellRecord& y) {
              return cmp.CellLess(x, y);
            });

  for (const LevelVector& levels : {top, mid, low}) {
    for (NodeId n0 : schema.dim(0).nodes_at_level(levels[0])) {
      for (NodeId n1 : schema.dim(1).nodes_at_level(levels[1])) {
        ImpreciseRecord r = Region(schema, n0, n1);
        // Covered cells must be one contiguous run.
        int first = -1, last = -1;
        int count = 0;
        for (size_t i = 0; i < cells.size(); ++i) {
          if (RegionCovers(schema, r.node, cells[i].leaf)) {
            if (first < 0) first = static_cast<int>(i);
            last = static_cast<int>(i);
            ++count;
          }
        }
        ASSERT_GT(count, 0);
        EXPECT_EQ(count, last - first + 1)
            << "region (" << n0 << "," << n1 << ") not contiguous";
      }
    }
  }
}

TEST(SortSpecTest, EntryLessIsConsistentWithStartKeys) {
  StarSchema schema = MakeSchema();
  SpecComparator cmp(&schema, SortSpec::Canonical(schema));
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    NodeId a0 = static_cast<NodeId>(rng.Uniform(schema.dim(0).num_nodes()));
    NodeId a1 = static_cast<NodeId>(rng.Uniform(schema.dim(1).num_nodes()));
    NodeId b0 = static_cast<NodeId>(rng.Uniform(schema.dim(0).num_nodes()));
    NodeId b1 = static_cast<NodeId>(rng.Uniform(schema.dim(1).num_nodes()));
    ImpreciseRecord ra = Region(schema, a0, a1);
    ImpreciseRecord rb = Region(schema, b0, b1);
    // EntryLess must be a strict weak ordering consistent with the start
    // corner's canonical leaf order.
    int32_t sa0 = schema.dim(0).leaf_begin(a0), sa1 = schema.dim(1).leaf_begin(a1);
    int32_t sb0 = schema.dim(0).leaf_begin(b0), sb1 = schema.dim(1).leaf_begin(b1);
    bool expect = std::make_pair(sa0, sa1) < std::make_pair(sb0, sb1);
    EXPECT_EQ(cmp.EntryLess(ra, rb), expect);
  }
}

TEST(SummaryOrderTest, PreciseFirstThenByLevelVector) {
  StarSchema schema = MakeSchema();
  SummaryOrderLess less(&schema);
  FactRecord precise;
  precise.node[0] = schema.dim(0).leaf_node(3);
  precise.node[1] = schema.dim(1).leaf_node(3);
  precise.level[0] = precise.level[1] = 1;
  FactRecord imprecise = precise;
  imprecise.node[1] = schema.dim(1).AncestorAtLevel(imprecise.node[1], 2);
  imprecise.level[1] = 2;
  EXPECT_TRUE(less(precise, imprecise));
  EXPECT_FALSE(less(imprecise, precise));

  // Ties broken by fact id, so sorting is deterministic.
  FactRecord a = precise, b = precise;
  a.fact_id = 1;
  b.fact_id = 2;
  EXPECT_TRUE(less(a, b));
  EXPECT_FALSE(less(b, a));
}

TEST(SortSpecTest, AutomotiveChainSpecOrdersRealCells) {
  // Smoke the chain machinery against the big Table 2 hierarchies.
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  LevelVector v{};
  v.fill(1);
  v[0] = 2;
  v[3] = 3;
  SortSpec spec = SortSpec::ForChain(schema, {v});
  SpecComparator cmp(&schema, spec);
  CellRecord a{}, b{};
  a.leaf[3] = 0;
  b.leaf[3] = schema.dim(3).num_leaves() - 1;
  EXPECT_TRUE(cmp.CellLess(a, b));
  EXPECT_FALSE(cmp.CellLess(b, a));
}

}  // namespace
}  // namespace iolap
