#include "edb/maintenance.h"

#include <gtest/gtest.h>

#include <map>

#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "edb/query.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

using CellKey = std::array<int32_t, kMaxDims>;
using EdbMap = std::map<std::pair<FactId, CellKey>, std::pair<double, double>>;

EdbMap LoadEdb(StorageEnv& env, const TypedFile<EdbRecord>& edb) {
  EdbMap out;
  auto cursor = edb.Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    EXPECT_TRUE(cursor.Next(&rec).ok());
    CellKey key{};
    std::memcpy(key.data(), rec.leaf, sizeof(rec.leaf));
    out[{rec.fact_id, key}] = {rec.weight, rec.measure};
  }
  return out;
}

std::vector<FactRecord> ReadFacts(StorageEnv& env,
                                  const TypedFile<FactRecord>& facts) {
  std::vector<FactRecord> out;
  auto cursor = facts.Scan(env.pool());
  FactRecord f;
  while (!cursor.done()) {
    EXPECT_TRUE(cursor.Next(&f).ok());
    out.push_back(f);
  }
  return out;
}

Result<TypedFile<FactRecord>> WriteFacts(StorageEnv& env,
                                         const std::vector<FactRecord>& facts) {
  IOLAP_ASSIGN_OR_RETURN(auto file,
                         TypedFile<FactRecord>::Create(env.disk(), "fcopy"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

// Applies a batch incrementally and compares the maintained EDB with a
// from-scratch rebuild over the updated fact table.
void RunIncrementalVsRebuild(const StarSchema& schema,
                             std::vector<FactRecord> base_facts,
                             const std::vector<FactUpdate>& updates,
                             PolicyKind policy) {
  AllocationOptions options;
  options.policy = policy;
  options.epsilon = 1e-9;
  options.max_iterations = 300;

  // Incremental path.
  StorageEnv env_inc(MakeTempDir(), 128);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts_inc, WriteFacts(env_inc, base_facts));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager,
      MaintenanceManager::Build(env_inc, schema, &facts_inc, options));
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->ApplyUpdates(updates, &stats));
  EdbMap incremental = LoadEdb(env_inc, manager->edb());

  // Rebuild path.
  std::vector<FactRecord> updated_facts = base_facts;
  for (FactRecord& f : updated_facts) {
    for (const FactUpdate& u : updates) {
      if (u.before.fact_id == f.fact_id) f.measure = u.new_measure;
    }
  }
  StorageEnv env_rb(MakeTempDir(), 128);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts_rb, WriteFacts(env_rb, updated_facts));
  options.algorithm = AlgorithmKind::kTransitive;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult rebuilt,
                             Allocator::Run(env_rb, schema, &facts_rb, options));
  EdbMap rebuild = LoadEdb(env_rb, rebuilt.edb);

  ASSERT_EQ(incremental.size(), rebuild.size());
  for (const auto& [key, wm] : rebuild) {
    auto it = incremental.find(key);
    ASSERT_NE(it, incremental.end()) << "missing row for fact " << key.first;
    EXPECT_NEAR(it->second.first, wm.first, 1e-6) << "fact " << key.first;
    EXPECT_NEAR(it->second.second, wm.second, 1e-9) << "fact " << key.first;
  }
}

TEST(MaintenanceTest, BuildExposesDirectoryAndRtree) {
  StorageEnv env(MakeTempDir(), 64);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, MakePaperExampleFacts(env, schema));
  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &facts, options));
  EXPECT_EQ(manager->directory().size(), 2u);  // Example 5's two components
  EXPECT_EQ(manager->rtree().size(), 2);
  // Directory EDB ranges must tile the imprecise suffix of the EDB.
  int64_t rows = manager->build_result().num_precise;
  for (const auto& info : manager->directory()) {
    ASSERT_EQ(info.edb_ranges.size(), 1u);
    EXPECT_EQ(info.edb_ranges[0].first, rows);
    rows = info.edb_ranges[0].second;
  }
  EXPECT_EQ(rows, manager->edb().size());
}

TEST(MaintenanceTest, BuildReportsPhasesThatPartitionItsDiskTraffic) {
  StorageEnv env(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  DatasetSpec spec;
  spec.num_facts = 3000;
  spec.seed = 6;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
  AllocationOptions options;
  const IoStats before = env.disk().stats();
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &facts, options));
  const IoStats build_io = env.disk().stats() - before;
  const AllocationResult& r = manager->build_result();
  EXPECT_GT(r.prep_seconds, 0);
  EXPECT_GT(r.alloc_seconds, 0);
  EXPECT_GT(r.emit_seconds, 0);
  EXPECT_GT(r.prep_io.total(), 0);
  EXPECT_GT(r.alloc_io.total(), 0);
  EXPECT_GT(r.emit_io.total(), 0);
  IoStats phases = r.prep_io;
  phases += r.alloc_io;
  phases += r.emit_io;
  EXPECT_EQ(phases, build_io);
}

TEST(MaintenanceTest, PreciseMeasureUpdateCountPolicy) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  StorageEnv tmp(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto f, MakePaperExampleFacts(tmp, schema));
  std::vector<FactRecord> facts = ReadFacts(tmp, f);
  // Update p1 (precise) and p9 (imprecise).
  std::vector<FactUpdate> updates;
  updates.push_back(FactUpdate{facts[0], 999.0});
  updates.push_back(FactUpdate{facts[8], 500.0});
  RunIncrementalVsRebuild(schema, facts, updates, PolicyKind::kCount);
}

TEST(MaintenanceTest, PreciseMeasureUpdateMeasurePolicyShiftsWeights) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  StorageEnv tmp(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto f, MakePaperExampleFacts(tmp, schema));
  std::vector<FactRecord> facts = ReadFacts(tmp, f);
  // Changing a precise measure under EM-Measure changes δ and thus the
  // allocation weights of the whole component.
  std::vector<FactUpdate> updates;
  updates.push_back(FactUpdate{facts[3], 9999.0});  // p4 (CA, Civic)
  RunIncrementalVsRebuild(schema, facts, updates, PolicyKind::kMeasure);
}

TEST(MaintenanceTest, SequentialBatchesStayConsistent) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  StorageEnv tmp(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto f, MakePaperExampleFacts(tmp, schema));
  std::vector<FactRecord> base = ReadFacts(tmp, f);

  AllocationOptions options;
  options.policy = PolicyKind::kMeasure;
  options.epsilon = 1e-9;
  options.max_iterations = 300;
  StorageEnv env(MakeTempDir(), 128);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, WriteFacts(env, base));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &facts, options));

  // Batch 1 updates p4; batch 2 updates it again — the second batch's
  // `before` must carry batch 1's measure.
  std::vector<FactUpdate> batch1 = {FactUpdate{base[3], 1000.0}};
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(manager->ApplyUpdates(batch1, &stats));
  FactRecord after1 = base[3];
  after1.measure = 1000.0;
  std::vector<FactUpdate> batch2 = {FactUpdate{after1, 55.0}};
  IOLAP_ASSERT_OK(manager->ApplyUpdates(batch2, &stats));
  EdbMap incremental = LoadEdb(env, manager->edb());

  // Compare with a rebuild at the final state.
  std::vector<FactRecord> final_facts = base;
  final_facts[3].measure = 55.0;
  StorageEnv env_rb(MakeTempDir(), 128);
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts_rb, WriteFacts(env_rb, final_facts));
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult rebuilt,
                             Allocator::Run(env_rb, schema, &facts_rb,
                                            options));
  EdbMap rebuild = LoadEdb(env_rb, rebuilt.edb);
  ASSERT_EQ(incremental.size(), rebuild.size());
  for (const auto& [key, wm] : rebuild) {
    auto it = incremental.find(key);
    ASSERT_NE(it, incremental.end());
    EXPECT_NEAR(it->second.first, wm.first, 1e-6);
    EXPECT_NEAR(it->second.second, wm.second, 1e-9);
  }
}

TEST(MaintenanceTest, NonOverlappedPreciseUpdateTouchesNoComponent) {
  StorageEnv env(MakeTempDir(), 64);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId ma, schema.dim(0).FindNode("MA"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId civic, schema.dim(1).FindNode("Civic"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId sedan, schema.dim(1).FindNode("Sedan"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId ca, schema.dim(0).FindNode("CA"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId sierra, schema.dim(1).FindNode("Sierra"));

  // One component in the (MA, Sedan) corner plus a precise fact at
  // (CA, Sierra), far outside the component's bounding box.
  std::vector<FactRecord> facts;
  FactRecord anchor;
  anchor.fact_id = 1;
  anchor.measure = 10;
  anchor.node[0] = ma;
  anchor.node[1] = civic;
  anchor.level[0] = anchor.level[1] = 1;
  facts.push_back(anchor);
  FactRecord imprecise;
  imprecise.fact_id = 2;
  imprecise.measure = 20;
  imprecise.node[0] = ma;
  imprecise.level[0] = 1;
  imprecise.node[1] = sedan;
  imprecise.level[1] = 2;
  facts.push_back(imprecise);
  FactRecord isolated;
  isolated.fact_id = 100;
  isolated.measure = 42;
  isolated.node[0] = ca;
  isolated.node[1] = sierra;
  isolated.level[0] = isolated.level[1] = 1;
  facts.push_back(isolated);

  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto file, WriteFacts(env, facts));
  IOLAP_ASSERT_OK_AND_ASSIGN(
      auto manager, MaintenanceManager::Build(env, schema, &file, options));
  ASSERT_EQ(manager->directory().size(), 1u);

  // (CA, Sierra) is outside the lone component's bounding box: updating it
  // must touch zero components but still refresh its EDB row.
  MaintenanceStats stats;
  IOLAP_ASSERT_OK(
      manager->ApplyUpdates({FactUpdate{isolated, 77.0}}, &stats));
  EXPECT_EQ(stats.components_touched, 0);
  EXPECT_EQ(stats.edb_rows_rewritten, 1);
  EdbMap edb = LoadEdb(env, manager->edb());
  CellKey key{};
  key[0] = schema.dim(0).leaf_begin(ca);
  key[1] = schema.dim(1).leaf_begin(sierra);
  EXPECT_EQ(edb.at({100, key}).second, 77.0);
}

TEST(MaintenanceTest, RandomizedBatchesMatchRebuild) {
  std::vector<Hierarchy> dims;
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                             HierarchyBuilder::Uniform("D0", {3, 3}));
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                             HierarchyBuilder::Uniform("D1", {2, 2, 2}));
  dims.push_back(d0);
  dims.push_back(d1);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema,
                             StarSchema::Create(std::move(dims)));
  StorageEnv tmp(MakeTempDir(), 64);
  DatasetSpec spec;
  spec.num_facts = 400;
  spec.imprecise_fraction = 0.35;
  spec.seed = 21;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto gen, GenerateFacts(tmp, schema, spec));
  std::vector<FactRecord> facts = ReadFacts(tmp, gen);

  Rng rng(99);
  std::vector<FactUpdate> updates;
  for (int i = 0; i < 25; ++i) {
    const FactRecord& target = facts[rng.Uniform(facts.size())];
    updates.push_back(FactUpdate{target, 1.0 + 10.0 * rng.NextDouble()});
  }
  // De-duplicate by fact id (ApplyUpdates applies the last wins per map).
  std::map<FactId, FactUpdate> dedup;
  for (const FactUpdate& u : updates) dedup[u.before.fact_id] = u;
  updates.clear();
  for (auto& [id, u] : dedup) updates.push_back(u);

  RunIncrementalVsRebuild(schema, facts, updates, PolicyKind::kMeasure);
}

}  // namespace
}  // namespace iolap
