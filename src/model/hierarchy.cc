#include "model/hierarchy.h"

#include <algorithm>

namespace iolap {

Result<NodeId> Hierarchy::FindNode(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no node named '" + name + "' in dimension " +
                            dimension_name_);
  }
  return it->second;
}

HierarchyBuilder::HierarchyBuilder(std::string dimension_name,
                                   std::string root_name)
    : dimension_name_(std::move(dimension_name)) {
  parent_.push_back(kInvalidNode);
  name_.push_back(std::move(root_name));
  children_.emplace_back();
}

NodeId HierarchyBuilder::AddNode(NodeId parent, std::string name) {
  NodeId id = static_cast<NodeId>(parent_.size());
  parent_.push_back(parent);
  name_.push_back(std::move(name));
  children_.emplace_back();
  children_[parent].push_back(id);
  return id;
}

Result<Hierarchy> HierarchyBuilder::Uniform(std::string dimension_name,
                                            const std::vector<int>& fanouts) {
  HierarchyBuilder builder(dimension_name);
  std::vector<NodeId> frontier = {0};
  for (size_t depth = 0; depth < fanouts.size(); ++depth) {
    std::vector<NodeId> next;
    next.reserve(frontier.size() * fanouts[depth]);
    for (NodeId p : frontier) {
      for (int i = 0; i < fanouts[depth]; ++i) {
        next.push_back(builder.AddNode(
            p, dimension_name + "_L" + std::to_string(depth + 1) + "_" +
                   std::to_string(next.size())));
      }
    }
    frontier = std::move(next);
  }
  return builder.Build();
}

Result<Hierarchy> HierarchyBuilder::Build() {
  const size_t n = parent_.size();
  if (n == 1) {
    return Status::InvalidArgument("hierarchy '" + dimension_name_ +
                                   "' has no nodes below ALL");
  }

  // Depth of each node (root = 0), iteratively via DFS.
  std::vector<int> depth(n, -1);
  depth[0] = 0;
  int max_depth = 0;
  {
    std::vector<NodeId> stack = {0};
    while (!stack.empty()) {
      NodeId node = stack.back();
      stack.pop_back();
      for (NodeId child : children_[node]) {
        depth[child] = depth[node] + 1;
        max_depth = std::max(max_depth, depth[child]);
        stack.push_back(child);
      }
    }
  }
  // Balance check: every leaf must sit at max_depth.
  for (size_t i = 0; i < n; ++i) {
    if (children_[i].empty() && depth[static_cast<NodeId>(i)] != max_depth) {
      return Status::InvalidArgument(
          "hierarchy '" + dimension_name_ + "' is not balanced: leaf '" +
          name_[i] + "' at depth " + std::to_string(depth[i]) +
          " != " + std::to_string(max_depth));
    }
  }

  Hierarchy h;
  h.dimension_name_ = dimension_name_;
  h.num_levels_ = max_depth + 1;
  h.parent_ = parent_;
  h.name_ = name_;
  h.level_.resize(n);
  h.leaf_begin_.assign(n, 0);
  h.leaf_end_.assign(n, 0);
  h.ordinal_.assign(n, 0);
  h.levels_.resize(h.num_levels_);

  for (size_t i = 0; i < n; ++i) {
    h.level_[i] = h.num_levels_ - depth[i];
  }

  // Iterative DFS assigning leaf ids and leaf ranges in child order.
  LeafId next_leaf = 0;
  {
    // Stack entries: (node, child cursor). Post-order completion sets
    // leaf_end; pre-order sets leaf_begin.
    std::vector<std::pair<NodeId, size_t>> stack;
    stack.emplace_back(0, 0);
    h.leaf_begin_[0] = 0;
    while (!stack.empty()) {
      auto& [node, cursor] = stack.back();
      if (cursor == 0) {
        h.leaf_begin_[node] = next_leaf;
        if (children_[node].empty()) {
          h.leaf_node_.push_back(node);
          ++next_leaf;
        }
      }
      if (cursor < children_[node].size()) {
        NodeId child = children_[node][cursor];
        ++cursor;
        stack.emplace_back(child, 0);
      } else {
        h.leaf_end_[node] = next_leaf;
        stack.pop_back();
      }
    }
  }
  h.num_leaves_ = next_leaf;

  // Per-level ordinals in leaf_begin order (== DFS order within a level).
  for (size_t i = 0; i < n; ++i) {
    h.levels_[h.level_[i] - 1].push_back(static_cast<NodeId>(i));
  }
  for (auto& level_nodes : h.levels_) {
    std::sort(level_nodes.begin(), level_nodes.end(),
              [&](NodeId a, NodeId b) {
                return h.leaf_begin_[a] < h.leaf_begin_[b];
              });
    for (size_t i = 0; i < level_nodes.size(); ++i) {
      h.ordinal_[level_nodes[i]] = static_cast<int32_t>(i);
    }
  }

  // Fast leaf -> ancestor (ordinal and node) tables.
  h.leaf_ancestor_ordinal_.resize(static_cast<size_t>(h.num_levels_) *
                                  h.num_leaves_);
  h.leaf_ancestor_node_.resize(h.leaf_ancestor_ordinal_.size());
  for (LeafId leaf = 0; leaf < h.num_leaves_; ++leaf) {
    NodeId node = h.leaf_node_[leaf];
    for (int level = 1; level <= h.num_levels_; ++level) {
      h.leaf_ancestor_ordinal_[(level - 1) * h.num_leaves_ + leaf] =
          h.ordinal_[node];
      h.leaf_ancestor_node_[(level - 1) * h.num_leaves_ + leaf] = node;
      node = h.parent_[node];
    }
  }

  // Name lookup.
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] = h.by_name_.emplace(h.name_[i], static_cast<NodeId>(i));
    if (!inserted) {
      return Status::InvalidArgument("duplicate node name '" + h.name_[i] +
                                     "' in dimension " + dimension_name_);
    }
  }
  return h;
}

}  // namespace iolap
