// The hierarchical aggregate index: every index-tier answer must be
// indistinguishable (to 1e-9) from a fresh QueryEngine scan of the same
// EDB — for all five aggregate functions, across every mutation kind
// (update / insert / delete / compact), through both the direct AggIndex
// API and the QueryService tier that serves cache misses from it.

#include "aggidx/agg_index.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/maintenance.h"
#include "edb/query.h"
#include "obs/trace.h"
#include "serve/query_service.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

Result<TypedFile<FactRecord>> WriteFacts(StorageEnv& env,
                                         const std::vector<FactRecord>& facts) {
  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "fcopy"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

FactRecord MakeFactAt(const StarSchema& schema, FactId id, double measure,
                      NodeId n0, NodeId n1) {
  FactRecord f;
  f.fact_id = id;
  f.measure = measure;
  f.node[0] = n0;
  f.node[1] = n1;
  f.level[0] = static_cast<uint8_t>(schema.dim(0).level(n0));
  f.level[1] = static_cast<uint8_t>(schema.dim(1).level(n1));
  return f;
}

constexpr AggregateFunc kAllFuncs[] = {
    AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage,
    AggregateFunc::kMin, AggregateFunc::kMax};

/// Paper-example fixture. The service is built with the cache disabled so
/// every query is a miss and must be answered by the index tier (the scan
/// only runs if the index errors, which the probe-count assertions catch).
class AggIndexTest : public ::testing::Test {
 protected:
  AggIndexTest() : env_(MakeTempDir(), 256) {}

  void SetUp() override {
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, MakePaperExampleSchema());
    StorageEnv scratch(MakeTempDir(), 32);
    IOLAP_ASSERT_OK_AND_ASSIGN(auto gen,
                               MakePaperExampleFacts(scratch, schema_));
    auto cursor = gen.Scan(scratch.pool());
    FactRecord f;
    while (!cursor.done()) {
      IOLAP_ASSERT_OK(cursor.Next(&f));
      facts_.push_back(f);
    }
    AllocationOptions options;
    options.policy = PolicyKind::kUniform;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env_, facts_));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        manager_, MaintenanceManager::Build(env_, schema_, &file, options));
  }

  ServeOptions IndexOnlyOptions() const {
    ServeOptions opts;
    opts.cache_slots = 0;  // no cache: every answer comes from the index
    opts.agg_index = true;
    return opts;
  }

  std::vector<QueryRegion> ProbeRegions() const {
    std::vector<QueryRegion> regions = {QueryRegion::All()};
    for (NodeId node : schema_.dim(0).nodes_at_level(1)) {
      regions.push_back(QueryRegion::All().With(0, node));
    }
    for (NodeId node : schema_.dim(1).nodes_at_level(2)) {
      regions.push_back(QueryRegion::All().With(1, node));
    }
    return regions;
  }

  /// Asserts every probe × function agrees with a fresh QueryEngine scan.
  void ExpectIndexMatchesEngine(QueryService& service) {
    QueryEngine engine(&env_, &schema_, &manager_->edb());
    for (const QueryRegion& region : ProbeRegions()) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                   engine.Aggregate(region, func));
        IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                   service.Aggregate(region, func));
        EXPECT_NEAR(got.value, expected.value, 1e-9);
        EXPECT_NEAR(got.sum, expected.sum, 1e-9);
        EXPECT_NEAR(got.count, expected.count, 1e-9);
      }
    }
  }

  StorageEnv env_;
  StarSchema schema_;
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(AggIndexTest, DirectAggregateMatchesEngineAllFuncs) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(index.Build());
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                                 index.Aggregate(region, func));
      EXPECT_NEAR(got.value, expected.value, 1e-9);
      EXPECT_NEAR(got.min, expected.min, 1e-9);
      EXPECT_NEAR(got.max, expected.max, 1e-9);
    }
  }
  AggIndex::Stats stats = index.stats();
  EXPECT_EQ(stats.builds, 1);
  EXPECT_GT(stats.cells, 0);
  EXPECT_GT(stats.pages, 0);
  EXPECT_GT(stats.probes, 0);
  EXPECT_GT(stats.nodes_read, 0);
}

TEST_F(AggIndexTest, DirectRollUpMatchesEngine) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (int dim = 0; dim < schema_.num_dims(); ++dim) {
    for (int level = 1; level <= schema_.dim(dim).num_levels(); ++level) {
      for (AggregateFunc func : kAllFuncs) {
        IOLAP_ASSERT_OK_AND_ASSIGN(
            auto expected, engine.RollUp(QueryRegion::All(), dim, level, func));
        IOLAP_ASSERT_OK_AND_ASSIGN(
            auto got, index.RollUp(QueryRegion::All(), dim, level, func));
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_NEAR(got[i].value, expected[i].value, 1e-9);
        }
      }
    }
  }
}

TEST_F(AggIndexTest, RollUpRejectsBadArguments) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  EXPECT_EQ(index.RollUp(QueryRegion::All(), 7, 1, AggregateFunc::kSum)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(index.RollUp(QueryRegion::All(), 0, 9, AggregateFunc::kSum)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AggIndexTest, LazyBuildOnFirstQuery) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  EXPECT_EQ(index.stats().builds, 0);
  IOLAP_ASSERT_OK(
      index.Aggregate(QueryRegion::All(), AggregateFunc::kSum).status());
  EXPECT_EQ(index.stats().builds, 1);
  IOLAP_ASSERT_OK(
      index.Aggregate(QueryRegion::All(), AggregateFunc::kMax).status());
  EXPECT_EQ(index.stats().builds, 1);  // built once, reused
}

TEST_F(AggIndexTest, ServiceAnswersMissesFromIndex) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ASSERT_NE(service.agg_index(), nullptr);
  ExpectIndexMatchesEngine(service);
  // With the cache off, every one of those answers was an index probe.
  EXPECT_GT(service.agg_index()->stats().probes, 0);
}

TEST_F(AggIndexTest, UpdateKeepsIndexConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ExpectIndexMatchesEngine(service);  // build, then patch incrementally

  FactUpdate u{facts_[0], facts_[0].measure + 900};
  IOLAP_ASSERT_OK(service.ApplyUpdates({u}));
  ExpectIndexMatchesEngine(service);

  // A second update, downward this time (min/max can only shrink via the
  // dirty-rebuild path).
  FactRecord cur = facts_[0];
  cur.measure += 900;
  IOLAP_ASSERT_OK(service.ApplyUpdates({FactUpdate{cur, 1.0}}));
  ExpectIndexMatchesEngine(service);
}

TEST_F(AggIndexTest, InsertKeepsIndexConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ExpectIndexMatchesEngine(service);

  // A precise insert lands in an existing or brand-new cell (overlay path);
  // an imprecise insert re-allocates the components it overlaps.
  FactRecord precise = facts_[0];
  precise.fact_id = 1000;
  precise.measure = 123.0;
  IOLAP_ASSERT_OK(service.InsertFacts({precise}));
  ExpectIndexMatchesEngine(service);

  FactRecord imprecise = facts_[0];
  imprecise.fact_id = 1001;
  imprecise.measure = 7.0;
  imprecise.node[0] = schema_.dim(0).nodes_at_level(2)[0];
  imprecise.level[0] =
      static_cast<uint8_t>(schema_.dim(0).level(imprecise.node[0]));
  IOLAP_ASSERT_OK(service.InsertFacts({imprecise}));
  ExpectIndexMatchesEngine(service);
}

TEST_F(AggIndexTest, DeleteKeepsIndexConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ExpectIndexMatchesEngine(service);

  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}));
  // Min/max over a region covering the delete must come from the dirty
  // rebuild, never a stale extremum; sum/count are patched in place.
  ExpectIndexMatchesEngine(service);
  EXPECT_GT(service.agg_index()->stats().refreshes +
                service.agg_index()->stats().builds,
            1);
}

TEST_F(AggIndexTest, CompactKeepsIndexConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  ExpectIndexMatchesEngine(service);

  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[1]}));
  ExpectIndexMatchesEngine(service);
  IOLAP_ASSERT_OK_AND_ASSIGN(int64_t removed, service.Compact());
  EXPECT_GE(removed, 1);
  // Compaction is a logical no-op: the index stays valid as-is.
  ExpectIndexMatchesEngine(service);
}

TEST_F(AggIndexTest, MutationsWithRollUpsStayConsistent) {
  QueryService service(manager_.get(), IndexOnlyOptions());
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  auto check_rollups = [&] {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(
          auto expected, engine.RollUp(QueryRegion::All(), 0, 2, func));
      IOLAP_ASSERT_OK_AND_ASSIGN(
          auto got, service.RollUp(QueryRegion::All(), 0, 2, func));
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(got[i].value, expected[i].value, 1e-9);
      }
    }
  };
  check_rollups();
  IOLAP_ASSERT_OK(
      service.ApplyUpdates({FactUpdate{facts_[2], facts_[2].measure * 3}}));
  check_rollups();
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[0]}));
  check_rollups();
}

TEST_F(AggIndexTest, IndexAndCacheTiersAgree) {
  ServeOptions opts;
  opts.agg_index = true;  // cache on AND index on: miss → index → cached
  QueryService service(manager_.get(), opts);
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (const QueryRegion& region : ProbeRegions()) {
    for (AggregateFunc func : kAllFuncs) {
      IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                                 engine.Aggregate(region, func));
      bool hit = true;
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult miss, service.Aggregate(region, func, nullptr, &hit));
      EXPECT_FALSE(hit);
      IOLAP_ASSERT_OK_AND_ASSIGN(
          AggregateResult warm, service.Aggregate(region, func, nullptr, &hit));
      EXPECT_TRUE(hit);
      EXPECT_NEAR(miss.value, expected.value, 1e-9);
      EXPECT_NEAR(warm.value, expected.value, 1e-9);
    }
  }
}

/// Two spatially separated halves (same layout as the serve layer's
/// selective-invalidation fixture): mutations in one half must patch or
/// dirty only what they touched, and min/max staleness must be confined to
/// the touched boxes.
class AggIndexSelectiveTest : public ::testing::Test {
 protected:
  AggIndexSelectiveTest() : env_(MakeTempDir(), 256) {}

  void SetUp() override {
    std::vector<Hierarchy> dims;
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                               HierarchyBuilder::Uniform("D0", {2, 4}));
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                               HierarchyBuilder::Uniform("D1", {2, 2}));
    dims.push_back(d0);
    dims.push_back(d1);
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, StarSchema::Create(std::move(dims)));
    half_a_ = schema_.dim(0).nodes_at_level(2)[0];
    half_b_ = schema_.dim(0).nodes_at_level(2)[1];
    const auto& d0_leaves = schema_.dim(0).nodes_at_level(1);
    const auto& d1_leaves = schema_.dim(1).nodes_at_level(1);
    facts_ = {
        MakeFactAt(schema_, 1, 10, d0_leaves[0], d1_leaves[0]),
        MakeFactAt(schema_, 2, 20, d0_leaves[1], d1_leaves[1]),
        MakeFactAt(schema_, 3, 30, half_a_, d1_leaves[0]),  // imprecise in A
        MakeFactAt(schema_, 4, 40, d0_leaves[4], d1_leaves[0]),
        MakeFactAt(schema_, 5, 50, d0_leaves[5], d1_leaves[1]),
        MakeFactAt(schema_, 6, 60, half_b_, d1_leaves[1]),  // imprecise in B
    };
    AllocationOptions options;
    options.policy = PolicyKind::kMeasure;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env_, facts_));
    IOLAP_ASSERT_OK_AND_ASSIGN(
        manager_, MaintenanceManager::Build(env_, schema_, &file, options));
  }

  StorageEnv env_;
  StarSchema schema_;
  NodeId half_a_ = 0;
  NodeId half_b_ = 0;
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(AggIndexSelectiveTest, DeleteInOneHalfOnlyDirtiesThatHalf) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);
  QueryRegion region_a = QueryRegion::All().With(0, half_a_);
  QueryRegion region_b = QueryRegion::All().With(0, half_b_);

  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_max,
      service.Aggregate(region_a, AggregateFunc::kMax));
  EXPECT_NEAR(a_max.value, 30, 1e-9);
  const int64_t builds_before = service.agg_index()->stats().builds +
                                service.agg_index()->stats().refreshes;

  // Delete fact 5 (in half B): its boxes lie entirely in B.
  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[4]}));
  EXPECT_GT(service.agg_index()->stats().dirty_boxes, 0);

  // A min/max query over half A is disjoint from every dirty rect, so it
  // must be answered without a rebuild — and still be exact.
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult a_after, service.Aggregate(region_a, AggregateFunc::kMax));
  EXPECT_NEAR(a_after.value, 30, 1e-9);
  EXPECT_EQ(service.agg_index()->stats().builds +
                service.agg_index()->stats().refreshes,
            builds_before);

  // Over half B the dirty rect forces the lazy rebuild, and the fresh
  // answer matches the engine.
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK_AND_ASSIGN(
      AggregateResult b_after, service.Aggregate(region_b, AggregateFunc::kMax));
  IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult b_expected,
                             engine.Aggregate(region_b, AggregateFunc::kMax));
  EXPECT_NEAR(b_after.value, b_expected.value, 1e-9);
  EXPECT_GT(service.agg_index()->stats().builds +
                service.agg_index()->stats().refreshes,
            builds_before);
}

TEST_F(AggIndexSelectiveTest, SumQueriesNeverRebuildAfterDeletes) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);
  IOLAP_ASSERT_OK(
      service.Aggregate(QueryRegion::All(), AggregateFunc::kSum).status());
  const int64_t rebuilds_before = service.agg_index()->stats().builds +
                                  service.agg_index()->stats().refreshes;

  IOLAP_ASSERT_OK(service.DeleteFacts({facts_[0]}));
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (AggregateFunc func :
       {AggregateFunc::kSum, AggregateFunc::kCount, AggregateFunc::kAverage}) {
    IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                               engine.Aggregate(QueryRegion::All(), func));
    IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                               service.Aggregate(QueryRegion::All(), func));
    EXPECT_NEAR(got.value, expected.value, 1e-9);
  }
  // Additive partials are patched in place — deletes alone never force the
  // sum/count/average path to rebuild.
  EXPECT_EQ(service.agg_index()->stats().builds +
                service.agg_index()->stats().refreshes,
            rebuilds_before);
}

TEST_F(AggIndexSelectiveTest, InvalidateForcesRebuildOnNextQuery) {
  AggIndex index(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(index.Build());
  EXPECT_EQ(index.stats().builds, 1);
  index.Invalidate();
  IOLAP_ASSERT_OK(
      index.Aggregate(QueryRegion::All(), AggregateFunc::kSum).status());
  EXPECT_EQ(index.stats().builds, 2);
}

TEST_F(AggIndexSelectiveTest, EmptyEdbAnswersEmptyAggregates) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);
  IOLAP_ASSERT_OK(service.DeleteFacts(facts_));
  QueryEngine engine(&env_, &schema_, &manager_->edb());
  for (AggregateFunc func : kAllFuncs) {
    IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult expected,
                               engine.Aggregate(QueryRegion::All(), func));
    IOLAP_ASSERT_OK_AND_ASSIGN(AggregateResult got,
                               service.Aggregate(QueryRegion::All(), func));
    EXPECT_NEAR(got.value, expected.value, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Index state after a mixed stream: the patched pages themselves, not just
// the answers they give, must equal what a fresh build of the same EDB
// writes.

using CellKey = std::array<int32_t, kMaxDims>;

CellKey KeyOf(const int32_t* key) {
  CellKey k{};
  std::memcpy(k.data(), key, sizeof(int32_t) * kMaxDims);
  return k;
}

/// Compares `index` entry by entry against a fresh build of `edb`:
///  - every internal entry holds the sum and count of its child page;
///  - every cell (tree leaf entry or overlay cell) holds the fresh build's
///    partials, a cell missing on one side holding zero;
///  - every marginal entry plus the overlay cells under its node holds the
///    fresh build's marginal;
///  - min/max of cells outside every dirty rect are exact.
void ExpectIndexStateMatchesFreshBuild(StorageEnv& env,
                                       const StarSchema& schema,
                                       const TypedFile<EdbRecord>& edb,
                                       const AggIndex& index) {
  constexpr double kTol = 1e-9;
  const int k = schema.num_dims();
  IOLAP_ASSERT_OK_AND_ASSIGN(AggIndex::Contents inc, index.Snapshot());
  ASSERT_TRUE(inc.ready);
  AggIndex fresh_index(&env, &schema, &edb);
  IOLAP_ASSERT_OK(fresh_index.Build());
  IOLAP_ASSERT_OK_AND_ASSIGN(AggIndex::Contents fresh, fresh_index.Snapshot());
  ASSERT_TRUE(fresh.overlay.empty());

  std::map<int64_t, const AggIndex::Contents::Page*> by_id;
  for (const auto& page : inc.pages) by_id[page.id] = &page;
  for (const auto& page : inc.pages) {
    if (page.level <= 0) continue;
    for (const AggIndexEntry& e : page.entries) {
      ASSERT_EQ(by_id.count(e.child), 1u);
      double sum = 0, count = 0;
      for (const AggIndexEntry& c : by_id[e.child]->entries) {
        sum += c.sum;
        count += c.count;
      }
      EXPECT_NEAR(e.sum, sum, kTol) << "page " << page.id;
      EXPECT_NEAR(e.count, count, kTol) << "page " << page.id;
    }
  }

  using Cells = std::map<CellKey, AggIndexEntry>;
  using Marginals = std::map<std::pair<int, NodeId>, AggIndexEntry>;
  auto collect = [](const AggIndex::Contents& c, Cells* cells,
                    Marginals* marginals) {
    for (const auto& page : c.pages) {
      for (const AggIndexEntry& e : page.entries) {
        if (page.level == 0) (*cells)[KeyOf(e.key)] = e;
        if (page.level == kAggIndexMarginalLevel) {
          (*marginals)[{e.key[0], e.key[1]}] = e;
        }
      }
    }
  };
  Cells inc_cells, fresh_cells;
  Marginals inc_marginals, fresh_marginals;
  collect(inc, &inc_cells, &inc_marginals);
  collect(fresh, &fresh_cells, &fresh_marginals);
  for (const AggIndexEntry& e : inc.overlay) {
    ASSERT_EQ(inc_cells.count(KeyOf(e.key)), 0u) << "cell in tree and overlay";
    inc_cells[KeyOf(e.key)] = e;
    for (int d = 0; d < k; ++d) {
      const Hierarchy& h = schema.dim(d);
      for (NodeId n = h.leaf_node(e.key[d]);; n = h.parent(n)) {
        AggIndexEntry& m = inc_marginals[{d, n}];
        m.sum += e.sum;
        m.count += e.count;
        if (n == h.root()) break;
      }
    }
  }

  auto in_dirty = [&](const Rect& box) {
    for (const Rect& r : inc.dirty_minmax) {
      if (RectsIntersect(box, r, k)) return true;
    }
    return false;
  };
  std::set<CellKey> keys;
  for (const auto& [key, e] : inc_cells) keys.insert(key);
  for (const auto& [key, e] : fresh_cells) keys.insert(key);
  for (const CellKey& key : keys) {
    const AggIndexEntry zero;
    const auto it = inc_cells.find(key);
    const auto ft = fresh_cells.find(key);
    const AggIndexEntry& a = it != inc_cells.end() ? it->second : zero;
    const AggIndexEntry& b = ft != fresh_cells.end() ? ft->second : zero;
    EXPECT_NEAR(a.sum, b.sum, kTol) << "cell " << key[0] << "," << key[1];
    EXPECT_NEAR(a.count, b.count, kTol) << "cell " << key[0] << "," << key[1];
    if (it != inc_cells.end() && ft != fresh_cells.end() &&
        !in_dirty(a.bbox)) {
      EXPECT_DOUBLE_EQ(a.min, b.min) << "cell " << key[0] << "," << key[1];
      EXPECT_DOUBLE_EQ(a.max, b.max) << "cell " << key[0] << "," << key[1];
    }
  }
  std::set<std::pair<int, NodeId>> nodes;
  for (const auto& [key, e] : inc_marginals) nodes.insert(key);
  for (const auto& [key, e] : fresh_marginals) nodes.insert(key);
  for (const auto& node : nodes) {
    const AggIndexEntry zero;
    const auto it = inc_marginals.find(node);
    const auto ft = fresh_marginals.find(node);
    const AggIndexEntry& a = it != inc_marginals.end() ? it->second : zero;
    const AggIndexEntry& b = ft != fresh_marginals.end() ? ft->second : zero;
    EXPECT_NEAR(a.sum, b.sum, kTol)
        << "marginal " << node.first << "/" << node.second;
    EXPECT_NEAR(a.count, b.count, kTol)
        << "marginal " << node.first << "/" << node.second;
  }
}

class AggIndexStateTest : public ::testing::Test {
 protected:
  AggIndexStateTest() : env_(MakeTempDir(), 512) {}

  void SetUp() override {
    // Enough occupied cells for a two-level tree and many marginal pages.
    std::vector<Hierarchy> dims;
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                               HierarchyBuilder::Uniform("D0", {4, 5, 5}));
    IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                               HierarchyBuilder::Uniform("D1", {3, 4}));
    dims.push_back(d0);
    dims.push_back(d1);
    IOLAP_ASSERT_OK_AND_ASSIGN(schema_, StarSchema::Create(std::move(dims)));
    DatasetSpec spec;
    spec.num_facts = 1500;
    spec.imprecise_fraction = 0.3;
    spec.seed = 31;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto gen, GenerateFacts(env_, schema_, spec));
    {
      auto cursor = gen.Scan(env_.pool());
      FactRecord f;
      while (!cursor.done()) {
        IOLAP_ASSERT_OK(cursor.Next(&f));
        facts_.push_back(f);
      }
    }
    AllocationOptions options;
    options.policy = PolicyKind::kMeasure;
    IOLAP_ASSERT_OK_AND_ASSIGN(
        manager_, MaintenanceManager::Build(env_, schema_, &gen, options));
  }

  /// A random fact: precise, or imprecise on one dimension.
  FactRecord RandomFact(Rng& rng, FactId id) const {
    FactRecord f;
    f.fact_id = id;
    f.measure = 1.0 + static_cast<double>(rng.Uniform(500));
    for (int d = 0; d < schema_.num_dims(); ++d) {
      const Hierarchy& h = schema_.dim(d);
      f.node[d] = h.leaf_node(static_cast<int32_t>(rng.Uniform(
          static_cast<uint64_t>(h.num_leaves()))));
    }
    if (rng.Uniform(3) == 0) {
      const int d = static_cast<int>(rng.Uniform(2));
      f.node[d] = schema_.dim(d).parent(f.node[d]);
    }
    for (int d = 0; d < schema_.num_dims(); ++d) {
      f.level[d] = static_cast<uint8_t>(schema_.dim(d).level(f.node[d]));
    }
    return f;
  }

  StorageEnv env_;
  StarSchema schema_;
  std::vector<FactRecord> facts_;
  std::unique_ptr<MaintenanceManager> manager_;
};

TEST_F(AggIndexStateTest, PatchedEntriesMatchFreshBuildAfterMixedStream) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);
  IOLAP_ASSERT_OK(service.agg_index()->Build());
  ExpectIndexStateMatchesFreshBuild(env_, schema_, manager_->edb(),
                                    *service.agg_index());

  Rng rng(4242);
  FactId next_id = 1'000'000;
  // Picks `n` distinct catalog positions.
  auto pick = [&](size_t n) {
    std::set<size_t> out;
    while (out.size() < n) out.insert(rng.Uniform(facts_.size()));
    return out;
  };
  for (int step = 0; step < 16; ++step) {
    switch (rng.Uniform(4)) {
      case 0: {  // update batch
        std::vector<FactUpdate> batch;
        for (size_t i : pick(8)) {
          batch.push_back(FactUpdate{facts_[i], facts_[i].measure * 2 + 1});
          facts_[i].measure = batch.back().new_measure;
        }
        IOLAP_ASSERT_OK(service.ApplyUpdates(batch));
        break;
      }
      case 1: {  // insert batch
        std::vector<FactRecord> batch;
        for (int i = 0; i < 6; ++i) batch.push_back(RandomFact(rng, next_id++));
        IOLAP_ASSERT_OK(service.InsertFacts(batch));
        facts_.insert(facts_.end(), batch.begin(), batch.end());
        break;
      }
      case 2: {  // delete batch
        std::vector<FactRecord> batch;
        std::set<size_t> victims = pick(5);
        for (size_t i : victims) batch.push_back(facts_[i]);
        IOLAP_ASSERT_OK(service.DeleteFacts(batch));
        for (auto it = victims.rbegin(); it != victims.rend(); ++it) {
          facts_.erase(facts_.begin() + static_cast<int64_t>(*it));
        }
        break;
      }
      default:  // compact
        IOLAP_ASSERT_OK(service.Compact().status());
        break;
    }
    SCOPED_TRACE("step " + std::to_string(step));
    ExpectIndexStateMatchesFreshBuild(env_, schema_, manager_->edb(),
                                      *service.agg_index());
  }
  EXPECT_GT(service.agg_index()->stats().cells_patched, 0);
}

TEST_F(AggIndexStateTest, DeltasOfSeveralCallsMergeBeforeOneCommit) {
  // Driven directly (no serve layer): two mutation calls hand over deltas
  // on the same leaves before a single commit folds them in.
  AggIndex index(&env_, &schema_, &manager_->edb());
  IOLAP_ASSERT_OK(index.Build());
  manager_->set_change_listener(&index);
  MaintenanceStats stats;
  FactRecord fact = facts_[0];
  for (double bump : {10.0, 25.0}) {
    IOLAP_ASSERT_OK(
        manager_->ApplyUpdates({FactUpdate{fact, fact.measure + bump}}, &stats));
    fact.measure += bump;
  }
  Rng rng(17);
  IOLAP_ASSERT_OK(manager_->InsertFacts({RandomFact(rng, 2'000'000)}, &stats));
  manager_->set_change_listener(nullptr);
  IOLAP_ASSERT_OK(
      index.Commit(stats.touched_boxes.data(), stats.touched_boxes.size()));
  EXPECT_GT(index.stats().cells_patched, 0);
  ExpectIndexStateMatchesFreshBuild(env_, schema_, manager_->edb(), index);
}

/// A traced write shows where its time went: the re-allocation span
/// carries the component's size and iteration count, and the delta
/// hand-off and the index commit each get one span per mutation call.
TEST_F(AggIndexStateTest, TracedWriteReportsPhases) {
  ServeOptions opts;
  opts.cache_slots = 0;
  opts.agg_index = true;
  QueryService service(manager_.get(), opts);
  IOLAP_ASSERT_OK(service.agg_index()->Build());
  IOLAP_ASSERT_OK_AND_ASSIGN(AggIndex::Contents before,
                             service.agg_index()->Snapshot());

  TraceCollector trace;
  SetGlobalTrace(&trace);
  std::vector<FactUpdate> batch;
  for (size_t i = 0; i < 10; ++i) {
    batch.push_back(FactUpdate{facts_[i * 97], facts_[i * 97].measure + 5});
  }
  const Status applied = service.ApplyUpdates(batch);
  SetGlobalTrace(nullptr);
  IOLAP_ASSERT_OK(applied);

  const std::string json = trace.ToChromeJson();
  auto count = [&](const std::string& needle) {
    int n = 0;
    for (size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"maint.publish_deltas\""), 1);
  EXPECT_EQ(count("\"aggidx.commit\""), 1);
  EXPECT_GE(count("\"maint.reallocate_component\""), 1);
  for (const char* arg : {"\"cells\":", "\"entries\":", "\"edges\":",
                          "\"iterations\":", "\"leaves\":",
                          "\"cells_patched\":", "\"pages_pinned\":"}) {
    EXPECT_GE(count(arg), 1) << arg;
  }
  // Each touched page is pinned once: never more pins than index pages.
  const size_t at = json.find("\"pages_pinned\":");
  ASSERT_NE(at, std::string::npos);
  const int64_t pinned = std::stoll(json.substr(at + 15));
  EXPECT_GT(pinned, 0);
  EXPECT_LE(pinned, static_cast<int64_t>(before.pages.size()));
}

}  // namespace
}  // namespace iolap
