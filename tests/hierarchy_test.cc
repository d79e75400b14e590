#include "model/hierarchy.h"

#include <gtest/gtest.h>

#include "common/result.h"
#include "tests/test_util.h"

namespace iolap {
namespace {

// The paper's Location dimension (Figure 1): ALL -> {East, West} ->
// {MA, NY} / {TX, CA}.
Hierarchy MakeLocation() {
  HierarchyBuilder b("Location");
  NodeId east = b.AddNode(0, "East");
  NodeId west = b.AddNode(0, "West");
  b.AddNode(east, "MA");
  b.AddNode(east, "NY");
  b.AddNode(west, "TX");
  b.AddNode(west, "CA");
  auto h = b.Build();
  EXPECT_TRUE(h.ok());
  return std::move(h).value();
}

TEST(HierarchyTest, LevelsMatchPaperDefinition) {
  Hierarchy h = MakeLocation();
  EXPECT_EQ(h.num_levels(), 3);
  EXPECT_EQ(h.level(h.root()), 3);  // ALL
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId east, h.FindNode("East"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId ma, h.FindNode("MA"));
  EXPECT_EQ(h.level(east), 2);
  EXPECT_EQ(h.level(ma), 1);
  EXPECT_TRUE(h.is_leaf(ma));
  EXPECT_FALSE(h.is_leaf(east));
}

TEST(HierarchyTest, LeafRangesAreContiguousAndNested) {
  Hierarchy h = MakeLocation();
  EXPECT_EQ(h.num_leaves(), 4);
  EXPECT_EQ(h.leaf_begin(h.root()), 0);
  EXPECT_EQ(h.leaf_end(h.root()), 4);
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId east, h.FindNode("East"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId west, h.FindNode("West"));
  // Children partition the parent's range.
  EXPECT_EQ(h.leaf_begin(east), 0);
  EXPECT_EQ(h.leaf_end(east), 2);
  EXPECT_EQ(h.leaf_begin(west), 2);
  EXPECT_EQ(h.leaf_end(west), 4);
  EXPECT_EQ(h.region_width(east), 2);
  EXPECT_EQ(h.region_width(h.root()), 4);
}

TEST(HierarchyTest, LeafNodeInverse) {
  Hierarchy h = MakeLocation();
  for (LeafId l = 0; l < h.num_leaves(); ++l) {
    NodeId n = h.leaf_node(l);
    EXPECT_TRUE(h.is_leaf(n));
    EXPECT_EQ(h.leaf_begin(n), l);
    EXPECT_EQ(h.leaf_end(n), l + 1);
  }
}

TEST(HierarchyTest, AncestorAtLevel) {
  Hierarchy h = MakeLocation();
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId ma, h.FindNode("MA"));
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId east, h.FindNode("East"));
  EXPECT_EQ(h.AncestorAtLevel(ma, 1), ma);
  EXPECT_EQ(h.AncestorAtLevel(ma, 2), east);
  EXPECT_EQ(h.AncestorAtLevel(ma, 3), h.root());
  EXPECT_EQ(h.AncestorAtLevel(east, 3), h.root());
}

TEST(HierarchyTest, LeafAncestorOrdinalIsMonotone) {
  Hierarchy h = MakeLocation();
  for (int level = 1; level <= h.num_levels(); ++level) {
    int32_t prev = -1;
    for (LeafId l = 0; l < h.num_leaves(); ++l) {
      int32_t ord = h.LeafAncestorOrdinal(l, level);
      EXPECT_GE(ord, prev) << "level " << level << " leaf " << l;
      prev = ord;
      // Cross-check against the slow path.
      NodeId anc = h.AncestorAtLevel(h.leaf_node(l), level);
      EXPECT_EQ(ord, h.ordinal(anc));
      EXPECT_EQ(h.LeafAncestor(l, level), anc);
    }
  }
}

TEST(HierarchyTest, CoversMatchesLeafRange) {
  Hierarchy h = MakeLocation();
  IOLAP_ASSERT_OK_AND_ASSIGN(NodeId west, h.FindNode("West"));
  EXPECT_FALSE(h.Covers(west, 0));
  EXPECT_FALSE(h.Covers(west, 1));
  EXPECT_TRUE(h.Covers(west, 2));
  EXPECT_TRUE(h.Covers(west, 3));
}

TEST(HierarchyTest, NodesAtLevelInDfsOrder) {
  Hierarchy h = MakeLocation();
  const auto& states = h.nodes_at_level(1);
  ASSERT_EQ(states.size(), 4u);
  EXPECT_EQ(h.name(states[0]), "MA");
  EXPECT_EQ(h.name(states[1]), "NY");
  EXPECT_EQ(h.name(states[2]), "TX");
  EXPECT_EQ(h.name(states[3]), "CA");
  EXPECT_EQ(h.NodeAt(1, 2), states[2]);
  EXPECT_EQ(h.num_nodes_at_level(2), 2);
}

TEST(HierarchyTest, FindNodeMissing) {
  Hierarchy h = MakeLocation();
  EXPECT_EQ(h.FindNode("Narnia").status().code(), StatusCode::kNotFound);
}

TEST(HierarchyBuilderTest, RejectsUnbalanced) {
  HierarchyBuilder b("Ragged");
  NodeId a = b.AddNode(0, "a");
  b.AddNode(0, "b");  // leaf at depth 1
  b.AddNode(a, "a1");  // leaf at depth 2
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(HierarchyBuilderTest, RejectsEmpty) {
  HierarchyBuilder b("Empty");
  EXPECT_FALSE(b.Build().ok());
}

TEST(HierarchyBuilderTest, RejectsDuplicateNames) {
  HierarchyBuilder b("Dup");
  b.AddNode(0, "x");
  b.AddNode(0, "x");
  EXPECT_EQ(b.Build().status().code(), StatusCode::kInvalidArgument);
}

TEST(HierarchyBuilderTest, UniformFanouts) {
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy h,
                             HierarchyBuilder::Uniform("U", {3, 4, 5}));
  EXPECT_EQ(h.num_levels(), 4);
  EXPECT_EQ(h.num_leaves(), 60);
  EXPECT_EQ(h.num_nodes_at_level(3), 3);
  EXPECT_EQ(h.num_nodes_at_level(2), 12);
  EXPECT_EQ(h.num_nodes_at_level(1), 60);
  // Spot-check nesting: leaf 17 is under L3 node 0 (leaves 0..19).
  EXPECT_EQ(h.LeafAncestorOrdinal(17, 3), 0);
  EXPECT_EQ(h.LeafAncestorOrdinal(20, 3), 1);
}

TEST(HierarchyBuilderTest, TwoLevelDegenerate) {
  // Just ALL + leaves: the minimal legal hierarchy.
  HierarchyBuilder b("Flat");
  b.AddNode(0, "l0");
  b.AddNode(0, "l1");
  IOLAP_ASSERT_OK_AND_ASSIGN(Hierarchy h, b.Build());
  EXPECT_EQ(h.num_levels(), 2);
  EXPECT_EQ(h.num_leaves(), 2);
}

}  // namespace
}  // namespace iolap
