#ifndef IOLAP_MODEL_HIERARCHY_H_
#define IOLAP_MODEL_HIERARCHY_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace iolap {

/// Index of a node within one dimension's hierarchy (0 = ALL/root).
using NodeId = int32_t;
/// DFS ordinal of a leaf within one dimension (0-based, contiguous).
using LeafId = int32_t;

inline constexpr NodeId kInvalidNode = -1;

/// A hierarchical domain (Definition 1 of the paper): a balanced tree whose
/// leaves are the base domain and whose internal nodes are imprecise values.
/// `ALL` is the root. LEVEL(leaf) = 1; LEVEL(root) = depth of the tree.
///
/// After `HierarchyBuilder::Build`, leaves carry consecutive DFS ordinals,
/// so every node covers a contiguous leaf range `[leaf_begin, leaf_end)` —
/// the property all the paper's sort orders rely on. Nodes within each level
/// are likewise DFS-ordered ("ordinals"), which makes ancestor ordinals
/// monotone in leaf id.
class Hierarchy {
 public:
  const std::string& dimension_name() const { return dimension_name_; }
  int32_t num_nodes() const { return static_cast<int32_t>(parent_.size()); }
  int32_t num_leaves() const { return num_leaves_; }
  /// Number of levels, counting leaves as level 1 and ALL as `num_levels()`.
  int num_levels() const { return num_levels_; }

  NodeId root() const { return 0; }
  int level(NodeId node) const { return level_[node]; }
  NodeId parent(NodeId node) const { return parent_[node]; }
  const std::string& name(NodeId node) const { return name_[node]; }
  bool is_leaf(NodeId node) const { return level_[node] == 1; }

  LeafId leaf_begin(NodeId node) const { return leaf_begin_[node]; }
  LeafId leaf_end(NodeId node) const { return leaf_end_[node]; }
  int32_t region_width(NodeId node) const {
    return leaf_end_[node] - leaf_begin_[node];
  }

  /// The leaf node carrying DFS ordinal `leaf`.
  NodeId leaf_node(LeafId leaf) const { return leaf_node_[leaf]; }

  /// Nodes of `level` in DFS order.
  const std::vector<NodeId>& nodes_at_level(int level) const {
    return levels_[level - 1];
  }
  int32_t num_nodes_at_level(int level) const {
    return static_cast<int32_t>(levels_[level - 1].size());
  }

  /// DFS ordinal of `node` among the nodes of its own level.
  int32_t ordinal(NodeId node) const { return ordinal_[node]; }

  /// Ancestor of `node` at `level`; `level` must be >= level(node).
  NodeId AncestorAtLevel(NodeId node, int level) const {
    NodeId n = node;
    for (int l = level_[node]; l < level; ++l) n = parent_[n];
    return n;
  }

  /// Ordinal (at `level`) of the ancestor of leaf `leaf`. O(1) via a
  /// precomputed table; this is the hot call in sort-key evaluation.
  int32_t LeafAncestorOrdinal(LeafId leaf, int level) const {
    return leaf_ancestor_ordinal_[(level - 1) * num_leaves_ + leaf];
  }

  /// Ancestor of leaf `leaf` at `level` (the leaf's own node at level 1).
  /// O(1) via a precomputed table, like LeafAncestorOrdinal.
  NodeId LeafAncestor(LeafId leaf, int level) const {
    return leaf_ancestor_node_[(level - 1) * num_leaves_ + leaf];
  }

  /// Node id for the given (level, ordinal) pair.
  NodeId NodeAt(int level, int32_t ordinal) const {
    return levels_[level - 1][ordinal];
  }

  /// Whether leaf `leaf` is a possible completion of `node`.
  bool Covers(NodeId node, LeafId leaf) const {
    return leaf >= leaf_begin_[node] && leaf < leaf_end_[node];
  }

  /// Looks a node up by name (names must be unique per dimension).
  Result<NodeId> FindNode(const std::string& name) const;

 private:
  friend class HierarchyBuilder;

  std::string dimension_name_;
  int32_t num_leaves_ = 0;
  int num_levels_ = 0;
  std::vector<NodeId> parent_;
  std::vector<int> level_;
  std::vector<LeafId> leaf_begin_;
  std::vector<LeafId> leaf_end_;
  std::vector<int32_t> ordinal_;
  std::vector<std::string> name_;
  std::vector<NodeId> leaf_node_;
  std::vector<std::vector<NodeId>> levels_;
  std::vector<int32_t> leaf_ancestor_ordinal_;  // [level-1][leaf], flattened
  std::vector<NodeId> leaf_ancestor_node_;      // [level-1][leaf], flattened
  std::unordered_map<std::string, NodeId> by_name_;
};

/// Builds a balanced Hierarchy. Add children breadth- or depth-first in any
/// order; `Build` validates balance (all leaves at equal depth) and computes
/// DFS numbering. Ragged real-world hierarchies should be padded to balance
/// first (standard OLAP practice; the paper's datasets are balanced).
class HierarchyBuilder {
 public:
  /// Starts a hierarchy whose root (ALL) has the given display name.
  explicit HierarchyBuilder(std::string dimension_name,
                            std::string root_name = "ALL");

  /// Adds a child of `parent`; returns the new node's id.
  NodeId AddNode(NodeId parent, std::string name);

  /// Convenience: builds a uniform tree with the given fan-outs per level
  /// from the root down (e.g. {10, 5} = root with 10 children, each with 5
  /// leaves). Names are auto-generated.
  static Result<Hierarchy> Uniform(std::string dimension_name,
                                   const std::vector<int>& fanouts);

  Result<Hierarchy> Build();

 private:
  std::string dimension_name_;
  std::vector<NodeId> parent_;
  std::vector<std::string> name_;
  std::vector<std::vector<NodeId>> children_;
};

}  // namespace iolap

#endif  // IOLAP_MODEL_HIERARCHY_H_
