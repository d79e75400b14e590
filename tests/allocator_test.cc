#include "alloc/allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc/in_memory.h"
#include "common/result.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/table2.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

using CellKey = std::array<int32_t, kMaxDims>;
using EdbMap = std::map<std::pair<FactId, CellKey>, double>;

// ------------------------------------------------------------------------
// Brute-force reference implementation of the allocation template, written
// independently of the library's algorithms: C = distinct precise cells,
// run exactly `iterations` EM steps, emit p = Δ(c)/Γ(r) with Γ recomputed
// from the final Δ.
EdbMap ReferenceAllocate(const StarSchema& schema,
                         const std::vector<FactRecord>& facts,
                         PolicyKind policy, int iterations) {
  const int k = schema.num_dims();
  std::map<CellKey, double> delta;  // cell -> Δ (δ-seeded)
  std::vector<const FactRecord*> imprecise;
  EdbMap edb;
  for (const FactRecord& f : facts) {
    if (f.IsPrecise(k)) {
      CellKey key{};
      for (int d = 0; d < k; ++d) key[d] = schema.dim(d).leaf_begin(f.node[d]);
      double contribution = policy == PolicyKind::kCount    ? 1.0
                            : policy == PolicyKind::kMeasure ? f.measure
                                                             : 0.0;
      auto [it, inserted] = delta.emplace(
          key, policy == PolicyKind::kUniform ? 1.0 : 0.0);
      it->second += contribution;
      edb[{f.fact_id, key}] = 1.0;
    } else {
      imprecise.push_back(&f);
    }
  }
  auto covered_cells = [&](const FactRecord& f) {
    std::vector<CellKey> cells;
    for (const auto& [key, d] : delta) {
      bool inside = true;
      for (int dim = 0; dim < k && inside; ++dim) {
        inside = schema.dim(dim).Covers(f.node[dim], key[dim]);
      }
      if (inside) cells.push_back(key);
    }
    return cells;
  };
  std::map<CellKey, double> delta0 = delta;
  for (int t = 0; t < iterations; ++t) {
    std::map<const FactRecord*, double> gamma;
    for (const FactRecord* f : imprecise) {
      double g = 0;
      for (const CellKey& c : covered_cells(*f)) g += delta[c];
      gamma[f] = g;
    }
    std::map<CellKey, double> next = delta0;
    for (const FactRecord* f : imprecise) {
      if (gamma[f] <= 0) continue;
      for (const CellKey& c : covered_cells(*f)) {
        next[c] += delta[c] / gamma[f];
      }
    }
    delta = next;
  }
  for (const FactRecord* f : imprecise) {
    double g = 0;
    for (const CellKey& c : covered_cells(*f)) g += delta[c];
    if (g <= 0) continue;  // unallocatable
    for (const CellKey& c : covered_cells(*f)) {
      edb[{f->fact_id, c}] = delta[c] / g;
    }
  }
  return edb;
}

EdbMap LoadEdb(StorageEnv& env, const TypedFile<EdbRecord>& edb) {
  EdbMap out;
  auto cursor = edb.Scan(env.pool());
  EdbRecord rec;
  while (!cursor.done()) {
    EXPECT_TRUE(cursor.Next(&rec).ok());
    CellKey key{};
    std::memcpy(key.data(), rec.leaf, sizeof(rec.leaf));
    auto [it, inserted] = out.emplace(std::make_pair(rec.fact_id, key),
                                      rec.weight);
    EXPECT_TRUE(inserted) << "duplicate EDB row for fact " << rec.fact_id;
  }
  return out;
}

void ExpectEdbNear(const EdbMap& got, const EdbMap& want, double tol) {
  EXPECT_EQ(got.size(), want.size());
  for (const auto& [key, weight] : want) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end())
        << "missing EDB row for fact " << key.first;
    EXPECT_NEAR(it->second, weight, tol) << "fact " << key.first;
  }
}

void ExpectWeightsSumToOne(const EdbMap& edb, int64_t unallocatable,
                           int64_t num_facts) {
  std::map<FactId, double> sums;
  for (const auto& [key, weight] : edb) {
    EXPECT_GE(weight, 0);
    EXPECT_LE(weight, 1 + 1e-9);
    sums[key.first] += weight;
  }
  EXPECT_EQ(static_cast<int64_t>(sums.size()) + unallocatable, num_facts);
  for (const auto& [fact, sum] : sums) {
    EXPECT_NEAR(sum, 1.0, 1e-9) << "fact " << fact;
  }
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
                         TypedFile<FactRecord>::Create(env.disk(), "facts2"));
  auto appender = file.MakeAppender(env.pool());
  for (const FactRecord& f : facts) IOLAP_RETURN_IF_ERROR(appender.Append(f));
  appender.Close();
  return file;
}

// ------------------------------------------------------------------------

TEST(AllocatorPaperExample, UniformAllocationsMatchHandComputation) {
  StorageEnv env(MakeTempDir(), 64);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, MakePaperExampleFacts(env, schema));
  AllocationOptions options;
  options.policy = PolicyKind::kUniform;
  options.algorithm = AlgorithmKind::kBlock;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));
  EdbMap edb = LoadEdb(env, result.edb);

  // Cells in C (precise cells, canonical leaf order):
  //   c1=(MA,Civic)=(0,0) c2=(MA,Sierra)=(0,3) c3=(NY,F150)=(1,2)
  //   c4=(CA,Civic)=(3,0) c5=(CA,Sierra)=(3,3)
  // p6 (MA, Sedan) covers only c1 -> weight 1.
  EXPECT_NEAR(edb.at({6, CellKey{0, 0}}), 1.0, 1e-12);
  // p8 (CA, ALL) covers c4, c5 -> 0.5 each.
  EXPECT_NEAR(edb.at({8, CellKey{3, 0}}), 0.5, 1e-12);
  EXPECT_NEAR(edb.at({8, CellKey{3, 3}}), 0.5, 1e-12);
  // p11 (ALL, Civic) covers c1, c4.
  EXPECT_NEAR(edb.at({11, CellKey{0, 0}}), 0.5, 1e-12);
  EXPECT_NEAR(edb.at({11, CellKey{3, 0}}), 0.5, 1e-12);
  // p9 (East, Truck) covers c2 (MA,Sierra) and c3 (NY,F150).
  EXPECT_NEAR(edb.at({9, CellKey{0, 3}}), 0.5, 1e-12);
  EXPECT_NEAR(edb.at({9, CellKey{1, 2}}), 0.5, 1e-12);
  ExpectWeightsSumToOne(edb, result.unallocatable_facts, 14);
}

TEST(AllocatorPaperExample, TransitiveFindsTheTwoComponents) {
  StorageEnv env(MakeTempDir(), 64);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, MakePaperExampleFacts(env, schema));
  AllocationOptions options;
  options.algorithm = AlgorithmKind::kTransitive;
  options.epsilon = 1e-6;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));
  // Example 5: CC1 has 9 tuples (3 cells + 6 imprecise facts), CC2 has 5
  // (2 cells + 3 imprecise facts).
  EXPECT_EQ(result.components.num_components, 2);
  EXPECT_EQ(result.components.largest_component, 9);
  EXPECT_EQ(result.components.num_singleton_cells, 0);
  EXPECT_EQ(result.unallocatable_facts, 0);
}

// ------------------------------------------------------------------------
// Equivalence sweep: every algorithm × several buffer sizes on randomized
// datasets must match the brute-force reference exactly (same fixed
// iteration count; FP tolerance only).

struct SweepParam {
  AlgorithmKind algorithm;
  int buffer_pages;
  uint64_t seed;
  PolicyKind policy;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(AlgorithmName(info.param.algorithm)) + "_b" +
         std::to_string(info.param.buffer_pages) + "_s" +
         std::to_string(info.param.seed) + "_" +
         (info.param.policy == PolicyKind::kCount ? "count" : "measure");
}

class AllocatorSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AllocatorSweep, MatchesReference) {
  const SweepParam& param = GetParam();
  StorageEnv env(MakeTempDir(), param.buffer_pages);

  // A small, dense 3-d schema so regions overlap heavily.
  std::vector<Hierarchy> dims;
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d0,
                             HierarchyBuilder::Uniform("D0", {3, 3}));
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d1,
                             HierarchyBuilder::Uniform("D1", {2, 2, 2}));
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy d2,
                             HierarchyBuilder::Uniform("D2", {4, 2}));
  dims.push_back(d0);
  dims.push_back(d1);
  dims.push_back(d2);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema,
                             StarSchema::Create(std::move(dims)));

  DatasetSpec spec;
  spec.num_facts = 600;
  spec.imprecise_fraction = 0.4;
  spec.allow_all = true;
  spec.all_fraction = 0.15;
  spec.seed = param.seed;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
  std::vector<FactRecord> raw = ReadFacts(env, facts);

  const int kIterations = 5;
  AllocationOptions options;
  options.policy = param.policy;
  options.algorithm = param.algorithm;
  options.epsilon = 0;  // run exactly kIterations everywhere
  options.max_iterations = kIterations;
  options.early_convergence = false;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));

  EdbMap got = LoadEdb(env, result.edb);
  EdbMap want = ReferenceAllocate(schema, raw, param.policy, kIterations);
  ExpectEdbNear(got, want, 1e-9);
  ExpectWeightsSumToOne(got, result.unallocatable_facts, spec.num_facts);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocatorSweep,
    ::testing::Values(
        SweepParam{AlgorithmKind::kBasic, 128, 1, PolicyKind::kCount},
        SweepParam{AlgorithmKind::kBlock, 128, 1, PolicyKind::kCount},
        SweepParam{AlgorithmKind::kBlock, 8, 1, PolicyKind::kCount},
        SweepParam{AlgorithmKind::kBlock, 8, 2, PolicyKind::kMeasure},
        SweepParam{AlgorithmKind::kIndependent, 128, 1, PolicyKind::kCount},
        SweepParam{AlgorithmKind::kIndependent, 8, 1, PolicyKind::kCount},
        SweepParam{AlgorithmKind::kIndependent, 8, 3, PolicyKind::kMeasure},
        SweepParam{AlgorithmKind::kTransitive, 128, 1, PolicyKind::kCount},
        SweepParam{AlgorithmKind::kTransitive, 8, 1, PolicyKind::kCount},
        SweepParam{AlgorithmKind::kTransitive, 8, 4, PolicyKind::kMeasure},
        SweepParam{AlgorithmKind::kBasic, 128, 5, PolicyKind::kMeasure}),
    SweepName);

// All four algorithms agree with each other when run to convergence.
TEST(AllocatorAgreement, ConvergedAlgorithmsAgree) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  EdbMap reference;
  int64_t reference_rows = -1;
  for (AlgorithmKind algo :
       {AlgorithmKind::kBasic, AlgorithmKind::kIndependent,
        AlgorithmKind::kBlock, AlgorithmKind::kTransitive}) {
    StorageEnv env(MakeTempDir(), 64);
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, MakePaperExampleFacts(env, schema));
    AllocationOptions options;
    options.algorithm = algo;
    options.epsilon = 1e-10;
    options.max_iterations = 200;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                               Allocator::Run(env, schema, &facts, options));
    EdbMap edb = LoadEdb(env, result.edb);
    if (reference_rows < 0) {
      reference = edb;
      reference_rows = static_cast<int64_t>(edb.size());
    } else {
      ExpectEdbNear(edb, reference, 1e-6);
    }
  }
}

// Theorem 2 / set-based semantics: shuffling the input fact order does not
// change the result.
TEST(AllocatorOrderInvariance, ShuffledInputGivesSameEdb) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  EdbMap reference;
  for (int trial = 0; trial < 3; ++trial) {
    StorageEnv env(MakeTempDir(), 32);
    IOLAP_ASSERT_OK_AND_ASSIGN(auto original,
                               MakePaperExampleFacts(env, schema));
    std::vector<FactRecord> raw = ReadFacts(env, original);
    Rng rng(trial * 97 + 13);
    for (size_t i = raw.size(); i > 1; --i) {
      std::swap(raw[i - 1], raw[rng.Uniform(i)]);
    }
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, WriteFacts(env, raw));
    AllocationOptions options;
    options.algorithm = AlgorithmKind::kBlock;
    options.epsilon = 0;
    options.max_iterations = 4;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                               Allocator::Run(env, schema, &facts, options));
    EdbMap edb = LoadEdb(env, result.edb);
    if (trial == 0) {
      reference = edb;
    } else {
      ExpectEdbNear(edb, reference, 1e-12);
    }
  }
}

// Facts whose region misses every cell of C are counted, not misallocated.
TEST(AllocatorEdgeCases, UnallocatableFactsAreCounted) {
  StorageEnv env(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts,
                             TypedFile<FactRecord>::Create(env.disk(), "f"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId ma, schema.dim(0).FindNode("MA"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId civic, schema.dim(1).FindNode("Civic"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId truck, schema.dim(1).FindNode("Truck"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId ny, schema.dim(0).FindNode("NY"));
  // One precise fact at (MA, Civic); one imprecise (NY, Truck) that covers
  // no precise cell.
  FactRecord precise;
  precise.fact_id = 1;
  precise.measure = 5;
  precise.node[0] = ma;
  precise.node[1] = civic;
  precise.level[0] = precise.level[1] = 1;
  IOLAP_ASSERT_OK(facts.Append(env.pool(), precise));
  FactRecord lost;
  lost.fact_id = 2;
  lost.measure = 7;
  lost.node[0] = ny;
  lost.level[0] = 1;
  lost.node[1] = truck;
  lost.level[1] = 2;
  IOLAP_ASSERT_OK(facts.Append(env.pool(), lost));

  for (AlgorithmKind algo :
       {AlgorithmKind::kBasic, AlgorithmKind::kIndependent,
        AlgorithmKind::kBlock, AlgorithmKind::kTransitive}) {
    StorageEnv fresh(MakeTempDir(), 32);
    IOLAP_ASSERT_OK_AND_ASSIGN(auto copy,
                               WriteFacts(fresh, ReadFacts(env, facts)));
    AllocationOptions options;
    options.algorithm = algo;
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                               Allocator::Run(fresh, schema, &copy, options));
    EXPECT_EQ(result.unallocatable_facts, 1)
        << AlgorithmName(algo);
    EXPECT_EQ(result.edb.size(), 1) << AlgorithmName(algo);
  }
}

TEST(AllocatorEdgeCases, AllPreciseDataset) {
  StorageEnv env(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  DatasetSpec spec;
  spec.num_facts = 100;
  spec.imprecise_fraction = 0;
  spec.seed = 5;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
  AllocationOptions options;
  options.algorithm = AlgorithmKind::kTransitive;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));
  EXPECT_EQ(result.num_imprecise, 0);
  EXPECT_EQ(result.edb.size(), 100);
  EXPECT_EQ(result.components.num_components, 0);
  EXPECT_GT(result.components.num_singleton_cells, 0);
}

TEST(AllocatorEdgeCases, EmptyFactTable) {
  StorageEnv env(MakeTempDir(), 32);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakePaperExampleSchema());
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts,
                             TypedFile<FactRecord>::Create(env.disk(), "f"));
  AllocationOptions options;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));
  EXPECT_EQ(result.edb.size(), 0);
  EXPECT_EQ(result.num_cells, 0);
}

// Block's sliding windows must never exceed the precomputed partition-size
// bound (Theorem 4 / Definition 9).
TEST(AllocatorWindows, PeakWindowWithinPartitionBound) {
  StorageEnv env(MakeTempDir(), 16);
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  DatasetSpec spec;
  spec.num_facts = 20000;
  spec.seed = 9;
  IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
  AllocationOptions options;
  options.algorithm = AlgorithmKind::kBlock;
  options.epsilon = 0.05;
  IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                             Allocator::Run(env, schema, &facts, options));
  EXPECT_GT(result.peak_window_records, 0);
  // Conservative global bound: sum of all partition sizes.
  // (The per-group bound is tighter; this catches runaway windows.)
  EXPECT_GT(result.num_tables, 0);
}

// ------------------------------------------------------------------------
// Allocator::Run applies its I/O pipeline knobs to the pool only for the
// duration of the run, and restores the previous settings on every return
// path.

struct PoolIoSettings {
  int read_ahead_pages;
  bool batched_writeback;

  static PoolIoSettings Of(const BufferPool& pool) {
    return {pool.read_ahead_pages(), pool.batched_writeback()};
  }
  bool operator==(const PoolIoSettings& o) const {
    return read_ahead_pages == o.read_ahead_pages &&
           batched_writeback == o.batched_writeback;
  }
};

TEST(AllocatorIoSettings, RestoredAfterSuccessfulRun) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  for (const bool customized : {false, true}) {
    StorageEnv env(MakeTempDir(), 16);
    if (customized) {
      env.pool().ConfigureReadAhead(3);
      env.pool().set_batched_writeback(false);
    }
    const PoolIoSettings before = PoolIoSettings::Of(env.pool());
    DatasetSpec spec;
    spec.num_facts = 2000;
    spec.seed = 4;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    AllocationOptions options;
    options.algorithm = AlgorithmKind::kBlock;
    options.max_iterations = 2;
    ASSERT_NE(options.io.read_ahead_pages, before.read_ahead_pages);
    IOLAP_ASSERT_OK_AND_ASSIGN(AllocationResult result,
                               Allocator::Run(env, schema, &facts, options));
    EXPECT_GT(result.edb.size(), 0);
    EXPECT_TRUE(PoolIoSettings::Of(env.pool()) == before)
        << "customized " << customized;
  }
}

TEST(AllocatorIoSettings, RestoredAfterFailedRun) {
  IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema, MakeAutomotiveSchema());
  int failed_runs = 0;
  // Failure points in preprocessing, in the EM iterations, and past
  // the end of the run.
  for (const int failure_point : {50, 500, 100000}) {
    StorageEnv env(MakeTempDir(), 16);
    const PoolIoSettings before = PoolIoSettings::Of(env.pool());
    DatasetSpec spec;
    spec.num_facts = 2000;
    spec.seed = 4;
    IOLAP_ASSERT_OK_AND_ASSIGN(auto facts, GenerateFacts(env, schema, spec));
    IOLAP_ASSERT_OK(env.pool().FlushAll());
    int countdown = failure_point;
    env.disk().SetFaultInjector([&countdown](char, FileId, PageId) {
      return --countdown <= 0 ? Status::IoError("injected fault")
                              : Status::Ok();
    });
    AllocationOptions options;
    options.algorithm = AlgorithmKind::kBlock;
    Result<AllocationResult> result =
        Allocator::Run(env, schema, &facts, options);
    env.disk().SetFaultInjector(nullptr);
    if (!result.ok()) {
      ++failed_runs;
      EXPECT_EQ(result.status().code(), StatusCode::kIoError);
    }
    EXPECT_TRUE(PoolIoSettings::Of(env.pool()) == before)
        << "failure point " << failure_point;
    IOLAP_EXPECT_OK(env.pool().FlushAll());
  }
  EXPECT_GE(failed_runs, 2);
}

// ------------------------------------------------------------------------
// The in-memory edge join against an all-pairs containment scan: seeded
// random components over 2–6 dimensions, regions at every level including
// ALL. Edge lists must match exactly, cells in ascending order.

TEST(MemoryAllocatorEdges, MatchAllPairsRegionCoversScan) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 2 + trial % 5;
    std::vector<Hierarchy> dims;
    for (int d = 0; d < k; ++d) {
      std::vector<int> fanouts;
      const int depth = 1 + static_cast<int>(rng.Uniform(3));
      for (int l = 0; l < depth; ++l) {
        fanouts.push_back(2 + static_cast<int>(rng.Uniform(3)));
      }
      std::string name = "D";
      name += std::to_string(d);
      IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy h,
                                 HierarchyBuilder::Uniform(name, fanouts));
      dims.push_back(std::move(h));
    }
    IOLAP_ASSERT_OK_AND_ASSIGN(StarSchema schema,
                               StarSchema::Create(std::move(dims)));

    // Distinct cells, in generation (not canonical) order.
    std::set<CellKey> seen;
    std::vector<CellRecord> cells;
    const int want = 1 + static_cast<int>(rng.Uniform(300));
    for (int attempt = 0;
         attempt < 4 * want && static_cast<int>(cells.size()) < want;
         ++attempt) {
      CellRecord c;
      CellKey key{};
      for (int d = 0; d < k; ++d) {
        c.leaf[d] = static_cast<int32_t>(
            rng.Uniform(static_cast<uint64_t>(schema.dim(d).num_leaves())));
        key[d] = c.leaf[d];
      }
      if (seen.insert(key).second) cells.push_back(c);
    }
    std::vector<ImpreciseRecord> entries;
    const int num_entries = 1 + static_cast<int>(rng.Uniform(120));
    for (int i = 0; i < num_entries; ++i) {
      ImpreciseRecord e;
      e.fact_id = i;
      e.measure = 1;
      for (int d = 0; d < k; ++d) {
        const Hierarchy& h = schema.dim(d);
        // Entry 0 is ALL everywhere; the rest draw any level, ALL included.
        const int level =
            i == 0 ? h.num_levels()
                   : 1 + static_cast<int>(rng.Uniform(h.num_levels()));
        const std::vector<NodeId>& nodes = h.nodes_at_level(level);
        e.node[d] = nodes[rng.Uniform(nodes.size())];
        e.level[d] = static_cast<uint8_t>(level);
      }
      entries.push_back(e);
    }

    MemoryAllocator ma(&schema, cells, entries);
    ASSERT_EQ(ma.edges().size(), entries.size());
    int64_t total = 0;
    for (size_t e = 0; e < entries.size(); ++e) {
      std::vector<int32_t> expected;
      for (size_t c = 0; c < ma.cells().size(); ++c) {
        if (RegionCovers(schema, ma.entries()[e].node, ma.cells()[c].leaf)) {
          expected.push_back(static_cast<int32_t>(c));
        }
      }
      EXPECT_EQ(ma.edges()[e], expected) << "trial " << trial << " entry " << e;
      total += static_cast<int64_t>(expected.size());
    }
    EXPECT_EQ(ma.edges()[0].size(), ma.cells().size());  // ALL covers all
    EXPECT_EQ(ma.num_edges(), total) << "trial " << trial;
  }
}

}  // namespace
}  // namespace iolap
