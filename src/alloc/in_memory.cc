#include "alloc/in_memory.h"

#include <algorithm>
#include <cmath>

#include "model/sort_key.h"

namespace iolap {

MemoryAllocator::MemoryAllocator(const StarSchema* schema,
                                 std::vector<CellRecord> cells,
                                 std::vector<ImpreciseRecord> entries)
    : schema_(schema), cells_(std::move(cells)), entries_(std::move(entries)) {
  BuildEdges();
}

void MemoryAllocator::BuildEdges() {
  edges_.assign(entries_.size(), {});
  if (cells_.empty() || entries_.empty()) return;

  SpecComparator cmp(schema_, SortSpec::Canonical(*schema_));
  // Edge lists index the cells in canonical order; callers (Transitive
  // components are sorted, but maintenance hands in merged segment lists
  // and freshly created cells) may not guarantee it.
  std::sort(cells_.begin(), cells_.end(),
            [&](const CellRecord& a, const CellRecord& b) {
              return cmp.CellLess(a, b);
            });

  // Indexed join: every hierarchy node covers a contiguous leaf range, so
  // the cells an entry can cover on dimension d are one run of the cells
  // ordered by leaf[d]. by_dim[d] holds (leaf[d] << 32 | cell index),
  // sorted; two binary searches per dimension find each run, and only the
  // narrowest run is walked with the full containment test (RegionCovers
  // against the entry's per-dimension leaf ranges, over a packed copy of
  // the cells' leaves).
  const int k = schema_->num_dims();
  const size_t n = cells_.size();
  std::vector<int32_t> leaves(n * k);
  for (size_t ci = 0; ci < n; ++ci) {
    std::copy(cells_[ci].leaf, cells_[ci].leaf + k, &leaves[ci * k]);
  }
  std::vector<std::vector<uint64_t>> by_dim(k);
  for (int d = 0; d < k; ++d) {
    std::vector<uint64_t>& keys = by_dim[d];
    keys.resize(n);
    for (size_t ci = 0; ci < n; ++ci) {
      keys[ci] = (static_cast<uint64_t>(leaves[ci * k + d]) << 32) | ci;
    }
    std::sort(keys.begin(), keys.end());
  }
  for (size_t e = 0; e < entries_.size(); ++e) {
    int32_t lo[kMaxDims];
    int32_t hi[kMaxDims];
    const uint64_t* best_begin = nullptr;
    const uint64_t* best_end = nullptr;
    for (int d = 0; d < k; ++d) {
      const Hierarchy& h = schema_->dim(d);
      lo[d] = h.leaf_begin(entries_[e].node[d]);
      hi[d] = h.leaf_end(entries_[e].node[d]);
      const uint64_t* first = by_dim[d].data();
      const uint64_t* last = first + n;
      const uint64_t* b =
          std::lower_bound(first, last, static_cast<uint64_t>(lo[d]) << 32);
      const uint64_t* t =
          std::lower_bound(b, last, static_cast<uint64_t>(hi[d]) << 32);
      if (best_begin == nullptr || t - b < best_end - best_begin) {
        best_begin = b;
        best_end = t;
      }
    }
    std::vector<int32_t>& list = edges_[e];
    for (const uint64_t* it = best_begin; it != best_end; ++it) {
      const auto ci = static_cast<int32_t>(*it & 0xffffffffu);
      const int32_t* leaf = &leaves[static_cast<size_t>(ci) * k];
      bool covered = true;
      for (int d = 0; d < k && covered; ++d) {
        covered = leaf[d] >= lo[d] && leaf[d] < hi[d];
      }
      if (covered) list.push_back(ci);
    }
    std::sort(list.begin(), list.end());
    num_edges_ += static_cast<int64_t>(list.size());
  }
}

double MemoryAllocator::Step(std::vector<double>* delta_cur) {
  // E-step: Γ(t)(r) from Δ(t-1).
  for (size_t e = 0; e < entries_.size(); ++e) {
    double gamma = 0;
    for (int32_t c : edges_[e]) gamma += cells_[c].delta_prev;
    entries_[e].gamma = gamma;
  }
  // M-step: Δ(t)(c) = δ(c) + Σ_r Δ(t-1)(c)/Γ(t)(r).
  for (size_t c = 0; c < cells_.size(); ++c) {
    (*delta_cur)[c] = cells_[c].delta0;
  }
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (entries_[e].gamma <= 0) continue;
    for (int32_t c : edges_[e]) {
      (*delta_cur)[c] += cells_[c].delta_prev / entries_[e].gamma;
    }
  }
  double max_eps = 0;
  for (size_t c = 0; c < cells_.size(); ++c) {
    double prev = cells_[c].delta_prev;
    double eps = prev != 0
                     ? std::fabs((*delta_cur)[c] - prev) / std::fabs(prev)
                     : ((*delta_cur)[c] == 0 ? 0.0 : 1.0);
    max_eps = std::max(max_eps, eps);
    cells_[c].delta_prev = (*delta_cur)[c];
    cells_[c].delta_cur = (*delta_cur)[c];
  }
  return max_eps;
}

int MemoryAllocator::Iterate(double epsilon, int max_iterations,
                             bool force_all_iterations) {
  std::vector<double> delta_cur(cells_.size());
  int iterations = 0;
  for (int t = 1; t <= max_iterations; ++t) {
    double max_eps = Step(&delta_cur);
    ++iterations;
    if (!force_all_iterations && max_eps < epsilon) break;
  }
  return iterations;
}

double MemoryAllocator::IterateOnce() {
  std::vector<double> delta_cur(cells_.size());
  return Step(&delta_cur);
}

Status MemoryAllocator::Emit(typename TypedFile<EdbRecord>::Appender* out,
                             int64_t* edges_emitted, int64_t* unallocatable) {
  for (size_t e = 0; e < entries_.size(); ++e) {
    double gamma = 0;
    for (int32_t c : edges_[e]) gamma += cells_[c].delta_prev;
    entries_[e].gamma = gamma;
    entries_[e].num_cells = static_cast<int32_t>(edges_[e].size());
    if (gamma <= 0) {
      ++*unallocatable;
      continue;
    }
    for (int32_t c : edges_[e]) {
      if (cells_[c].delta_prev <= 0) continue;  // Definition 4: p_{c,r} > 0
      EdbRecord edb;
      edb.fact_id = entries_[e].fact_id;
      edb.measure = entries_[e].measure;
      edb.weight = cells_[c].delta_prev / gamma;
      std::memcpy(edb.leaf, cells_[c].leaf, sizeof(edb.leaf));
      IOLAP_RETURN_IF_ERROR(out->Append(edb));
      ++*edges_emitted;
    }
  }
  return Status::Ok();
}

void MemoryAllocator::EmitToVector(std::vector<EdbRecord>* out,
                                   int64_t* unallocatable) {
  for (size_t e = 0; e < entries_.size(); ++e) {
    double gamma = 0;
    for (int32_t c : edges_[e]) gamma += cells_[c].delta_prev;
    entries_[e].gamma = gamma;
    if (gamma <= 0) {
      ++*unallocatable;
      continue;
    }
    for (int32_t c : edges_[e]) {
      if (cells_[c].delta_prev <= 0) continue;  // Definition 4: p_{c,r} > 0
      EdbRecord edb;
      edb.fact_id = entries_[e].fact_id;
      edb.measure = entries_[e].measure;
      edb.weight = cells_[c].delta_prev / gamma;
      std::memcpy(edb.leaf, cells_[c].leaf, sizeof(edb.leaf));
      out->push_back(edb);
    }
  }
}

}  // namespace iolap
