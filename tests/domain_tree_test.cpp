#include "features/domain_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {
namespace {

/// A tree over its own table, as a capture holds one.
struct Tree {
  NameTable names;
  DomainNameTree tree{names};
};

TEST(DomainTreeTest, InsertMarksOnlyExactNodeBlack) {
  Tree t;
  DomainNameTree& tree = t.tree;
  tree.insert(DomainName("a.example.com"));
  EXPECT_EQ(tree.black_count(), 1u);
  EXPECT_TRUE(tree.black(tree.find(DomainName("a.example.com"))));
  EXPECT_FALSE(tree.black(tree.find(DomainName("example.com"))));
  EXPECT_FALSE(tree.black(tree.find(DomainName("com"))));
}

TEST(DomainTreeTest, DuplicateInsertIsIdempotent) {
  Tree t;
  DomainNameTree& tree = t.tree;
  tree.insert(DomainName("a.example.com"));
  tree.insert(DomainName("a.example.com"));
  EXPECT_EQ(tree.black_count(), 1u);
}

TEST(DomainTreeTest, NodeCountAndSharing) {
  Tree t;
  DomainNameTree& tree = t.tree;
  tree.insert(DomainName("a.example.com"));
  tree.insert(DomainName("b.example.com"));
  // root + com + example + a + b
  EXPECT_EQ(tree.node_count(), 5u);
}

TEST(DomainTreeTest, FindMissing) {
  Tree t;
  DomainNameTree& tree = t.tree;
  tree.insert(DomainName("a.example.com"));
  EXPECT_EQ(tree.find(DomainName("z.example.com")), kInvalidNameId);
  EXPECT_EQ(tree.find(DomainName("a.example.org")), kInvalidNameId);
  // Interned but never inserted: a name of the table, not of the tree.
  tree.intern("q.example.com");
  EXPECT_EQ(tree.find(DomainName("q.example.com")), kInvalidNameId);
  EXPECT_EQ(tree.node_count(), 4u);
}

TEST(DomainTreeTest, FullNameReconstruction) {
  Tree t;
  DomainNameTree& tree = t.tree;
  const NameId node = tree.insert(DomainName("i.1.a.example.com"));
  EXPECT_EQ(tree.name(node), "i.1.a.example.com");
  EXPECT_EQ(tree.label(node), "i");
  EXPECT_EQ(tree.name(tree.root()), "");
  EXPECT_EQ(tree.name(tree.find(DomainName("com"))), "com");
  EXPECT_EQ(tree.name(tree.parent(node)), "1.a.example.com");
}

TEST(DomainTreeTest, DepthIsLabelCount) {
  Tree t;
  DomainNameTree& tree = t.tree;
  const NameId node = tree.insert(DomainName("i.1.a.example.com"));
  EXPECT_EQ(tree.depth(node), 5u);
  EXPECT_EQ(tree.depth(tree.find(DomainName("example.com"))), 2u);
  EXPECT_EQ(tree.depth(tree.root()), 0u);
}

void paper_example_tree(DomainNameTree& tree) {
  // The exact example of the paper's Fig. 8.
  tree.insert(DomainName("a.example.com"));
  tree.insert(DomainName("i.1.a.example.com"));
  tree.insert(DomainName("2.a.example.com"));
  tree.insert(DomainName("3.a.example.com"));
  tree.insert(DomainName("4.b.example.com"));
  tree.insert(DomainName("c.example.com"));
}

TEST(DomainTreeTest, PaperFig8Groups) {
  Tree t;
  DomainNameTree& tree = t.tree;
  paper_example_tree(tree);
  const NameId zone = tree.find(DomainName("example.com"));
  ASSERT_NE(zone, kInvalidNameId);
  const auto groups = tree.black_descendants_by_depth(zone);
  // G3 = {a, c}, G4 = {2.a, 3.a, 4.b}, G5 = {i.1.a}.
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.at(3).size(), 2u);
  EXPECT_EQ(groups.at(4).size(), 3u);
  EXPECT_EQ(groups.at(5).size(), 1u);
  std::vector<std::string> g3;
  for (const NameId node : groups.at(3)) {
    g3.emplace_back(tree.name(node));
  }
  std::sort(g3.begin(), g3.end());
  EXPECT_EQ(g3, (std::vector<std::string>{"a.example.com", "c.example.com"}));
}

TEST(DomainTreeTest, DecolorMatchesPaperFig9) {
  Tree t;
  DomainNameTree& tree = t.tree;
  paper_example_tree(tree);
  const NameId zone = tree.find(DomainName("example.com"));
  auto groups = tree.black_descendants_by_depth(zone);
  // Decolor G3 (a.example.com, c.example.com) as the paper's example does.
  for (const NameId node : groups.at(3)) tree.decolor(node);
  EXPECT_EQ(tree.black_count(), 4u);
  const auto after = tree.black_descendants_by_depth(zone);
  EXPECT_FALSE(after.contains(3));
  EXPECT_EQ(after.at(4).size(), 3u);
  // Decoloring twice is harmless.
  tree.decolor(tree.find(DomainName("a.example.com")));
  EXPECT_EQ(tree.black_count(), 4u);
}

TEST(DomainTreeTest, HasBlackDescendant) {
  Tree t;
  DomainNameTree& tree = t.tree;
  paper_example_tree(tree);
  EXPECT_TRUE(tree.has_black_descendant(tree.find(DomainName("example.com"))));
  EXPECT_TRUE(
      tree.has_black_descendant(tree.find(DomainName("a.example.com"))));
  // c.example.com is black itself but has no black *descendants*.
  EXPECT_FALSE(
      tree.has_black_descendant(tree.find(DomainName("c.example.com"))));
}

TEST(DomainTreeTest, Effective2ldNodes) {
  Tree t;
  DomainNameTree& tree = t.tree;
  tree.insert(DomainName("www.example.com"));
  tree.insert(DomainName("shop.foo.co.uk"));
  tree.insert(DomainName("x.bar.co.uk"));
  const auto zones = tree.effective_2ld_nodes(PublicSuffixList::builtin());
  std::vector<std::string> names;
  for (const NameId node : zones) names.emplace_back(tree.name(node));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"bar.co.uk", "example.com",
                                             "foo.co.uk"}));
}

TEST(DomainTreeTest, Effective2ldSkipsBarePublicSuffixes) {
  Tree t;
  DomainNameTree& tree = t.tree;
  tree.insert(DomainName("com"));      // a public suffix queried directly
  tree.insert(DomainName("a.b.com"));
  const auto zones = tree.effective_2ld_nodes(PublicSuffixList::builtin());
  ASSERT_EQ(zones.size(), 1u);
  EXPECT_EQ(tree.name(zones[0]), "b.com");
}

TEST(DomainTreeTest, ChildrenMatchMapReference) {
  // Children are kept in insertion order, and nothing depends on that
  // order (findings are sorted by a total order; the features sort their
  // own inputs).  What must hold is the structure: every node's set of
  // child labels equals the nested std::map reference's.
  Rng rng(0x7ee);
  Tree t;
  DomainNameTree& tree = t.tree;
  std::vector<std::string> inserted;
  for (int i = 0; i < 400; ++i) {
    std::string name = rng.hex_string(2 + rng.below(8));
    name += ".h";
    name += std::to_string(rng.below(12));
    name += rng.chance(0.5) ? ".alpha.test" : ".beta.test";
    tree.insert(DomainName(name));
    inserted.push_back(std::move(name));
  }
  // Reference: parent name -> the set of its children's labels.
  std::map<std::string, std::set<std::string>> reference;
  for (const std::string& name : inserted) {
    for (std::string child = name; !child.empty();) {
      const std::size_t dot = child.find('.');
      const std::string parent =
          dot == std::string::npos ? "" : child.substr(dot + 1);
      reference[parent].insert(child.substr(0, dot));
      child = parent;
    }
  }
  std::size_t visited = 0;
  std::vector<NameId> stack{tree.root()};
  while (!stack.empty()) {
    const NameId node = stack.back();
    stack.pop_back();
    std::set<std::string> labels;
    std::size_t children = 0;
    for (NameId child = tree.first_child(node); child != kInvalidNameId;
         child = tree.next_sibling(child)) {
      EXPECT_EQ(tree.parent(child), node);
      EXPECT_EQ(tree.depth(child), tree.depth(node) + 1);
      labels.emplace(tree.label(child));
      ++children;
      stack.push_back(child);
    }
    EXPECT_EQ(children, labels.size()) << tree.name(node);
    const auto it = reference.find(std::string(tree.name(node)));
    EXPECT_EQ(labels, it == reference.end() ? std::set<std::string>{}
                                            : it->second)
        << tree.name(node);
    ++visited;
  }
  EXPECT_EQ(visited, tree.node_count());
}

TEST(DomainTreeTest, MergeRemapsNamesAndKeepsEveryNode) {
  Tree a;
  a.tree.insert(DomainName("x.example.com"));
  Tree b;
  b.tree.intern("queried.only.org");  // a name of b's table, not its tree
  b.tree.insert(DomainName("y.example.com"));
  a.tree.merge_from(b.tree, a.names.intern_all(b.names));
  EXPECT_EQ(a.tree.node_count(), 5u);  // root, com, example, x, y
  EXPECT_TRUE(a.tree.black(a.tree.find(DomainName("y.example.com"))));
  // b's other names come across as names, outside the tree.
  const NameId queried = a.names.find("queried.only.org");
  ASSERT_TRUE(a.tree.is_name(queried));
  EXPECT_FALSE(a.tree.contains(queried));
  EXPECT_EQ(a.tree.depth(queried), 3u);
  EXPECT_EQ(a.tree.name(a.tree.parent(queried)), "only.org");
}

TEST(DomainTreeTest, GroupsAreScopedToTheZone) {
  Tree t;
  DomainNameTree& tree = t.tree;
  tree.insert(DomainName("x.one.com"));
  tree.insert(DomainName("y.two.com"));
  const NameId one = tree.find(DomainName("one.com"));
  const auto groups = tree.black_descendants_by_depth(one);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.at(3).size(), 1u);
  EXPECT_EQ(tree.name(groups.at(3)[0]), "x.one.com");
}

}  // namespace
}  // namespace dnsnoise
