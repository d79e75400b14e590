#ifndef IOLAP_DATAGEN_GENERATOR_H_
#define IOLAP_DATAGEN_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "model/records.h"
#include "model/schema.h"
#include "storage/paged_file.h"
#include "storage/storage_env.h"

namespace iolap {

/// Parameters of the synthetic fact generator (Section 11: "randomly
/// selecting dimension attribute values from these 4 dimensions"). The
/// defaults reproduce the composition of the paper's real automotive
/// dataset: 797,570 facts, 30% imprecise; of the imprecise facts 67% are
/// imprecise in one dimension, ~33% in two, 0.01% in three; level choices
/// within a dimension follow Table 2's per-level fractions; no ALL values.
struct DatasetSpec {
  int64_t num_facts = 797'570;
  double imprecise_fraction = 0.30;
  /// P(#imprecise dims = 1, 2, 3) for an imprecise fact (normalized).
  double dims_weights[3] = {0.67, 0.3299, 0.0001};
  /// Allow the value ALL in up to two dimensions — the paper's synthetic
  /// variant that produces a giant connected component.
  bool allow_all = false;
  /// Probability that an imprecise dimension value is ALL (only when
  /// allow_all; the remainder picks an interior level).
  double all_fraction = 0.10;
  /// Real repair records cluster: leaves are drawn with a power-law skew
  /// (0 = uniform). Skew makes precise facts share cells, which is what
  /// gives the real dataset its dense connected-component structure.
  double skew = 1.0;
  /// Hotspot model: facts concentrate around `num_hotspots` correlated
  /// cluster centers (0 = auto: ~1 per 150 facts). Hotspots are picked
  /// with a power-law head so a few big clusters emerge — the source of
  /// the real data's large connected components.
  int64_t num_hotspots = 0;
  /// Probability that a dimension value stays within its hotspot's
  /// neighbourhood (the level-2 parent of the hotspot's leaf).
  double hotspot_fidelity = 0.85;
  /// Exponent of the hotspot-popularity power law (larger = heavier head).
  double hotspot_skew = 2.5;
  /// Derive each imprecise fact by *generalizing* the cell of a previously
  /// generated precise fact (so its region overlaps C and the fact is
  /// allocatable), mirroring how real imprecision arises from incomplete
  /// records. When false, imprecise values are drawn independently.
  bool anchored = true;
  uint64_t seed = 1;
  double measure_min = 1.0;
  double measure_max = 250.0;
};

/// Generates a fact table into a fresh file of `env`. Fact ids are dense
/// [1, num_facts].
Result<TypedFile<FactRecord>> GenerateFacts(StorageEnv& env,
                                            const StarSchema& schema,
                                            const DatasetSpec& spec);

/// The 14 facts of the paper's Table 1 (p1..p14 get fact ids 1..14),
/// against MakePaperExampleSchema().
Result<TypedFile<FactRecord>> MakePaperExampleFacts(StorageEnv& env,
                                                    const StarSchema& schema);

/// Composition statistics of a generated fact table (for the Table 2
/// bench report).
struct FactTableStats {
  int64_t precise = 0;
  int64_t imprecise = 0;
  int64_t by_imprecise_dims[kMaxDims + 1] = {};  // index = #imprecise dims
  std::vector<std::vector<int64_t>> level_counts;  // [dim][level-1]
};
Result<FactTableStats> AnalyzeFacts(StorageEnv& env, const StarSchema& schema,
                                    const TypedFile<FactRecord>& facts);

}  // namespace iolap

#endif  // IOLAP_DATAGEN_GENERATOR_H_
