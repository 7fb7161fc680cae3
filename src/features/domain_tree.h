// Domain name tree (paper Section V-A1).
//
// The root is ".", its children are TLD labels, and so on.  A node is
// *black* when a resource record for that exact name was observed in the
// day's traffic; decoloring a node (after its group is classified
// disposable) turns it white so deeper passes of Algorithm 1 don't count it
// again.  Depth is the label count of a node's name (path length to root).
//
// Layout (DESIGN.md §11.2): the tree is per-id state over one NameTable,
// the capture's.  A node is the id of its full name.  Interning a name
// through the tree also interns its missing suffixes and records each
// one's parent id and depth, so a node's ancestors are ids of the same
// table, its full name is the table's text and its label is that text up
// to the first dot.  Only names inserted black and their ancestors are in
// the tree: each is linked into its parent's child list (first child,
// next sibling) in insertion order.  Names interned but never inserted
// (queried names) and text interned by others (rdata) stay outside it.
//
// Each node's black flag is its own byte, so workers may decolor disjoint
// subtrees at the same time (the parallel miner relies on this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "dns/name.h"
#include "dns/name_table.h"
#include "dns/public_suffix.h"

namespace dnsnoise {

class DomainNameTree {
 public:
  /// An empty tree over `names`, which must outlive it at a fixed address.
  explicit DomainNameTree(NameTable& names);

  DomainNameTree(const DomainNameTree&) = delete;
  DomainNameTree& operator=(const DomainNameTree&) = delete;
  DomainNameTree(DomainNameTree&&) = default;
  DomainNameTree& operator=(DomainNameTree&&) = default;

  /// Interns a normalized name (lowercase, no trailing dot) with its
  /// suffixes and returns its id, without inserting it into the tree.
  /// `hash` must be fnv1a64(name).  Allocation-free for a known name.
  NameId intern(std::string_view name, std::uint64_t hash);
  NameId intern(std::string_view name) { return intern(name, fnv1a64(name)); }

  /// Inserts the interned name `id`, marking it black.  Its ancestors
  /// join the tree white unless they are themselves inserted.
  void insert(NameId id);
  NameId insert(std::string_view name) {
    const NameId id = intern(name);
    insert(id);
    return id;
  }
  NameId insert(const DomainName& name) { return insert(name.text()); }

  /// The node of `name`, or kInvalidNameId when it is not in the tree.
  /// Never allocates.
  NameId find(std::string_view name) const noexcept;
  NameId find(const DomainName& name) const noexcept {
    return find(name.text());
  }

  const NameTable& names() const noexcept { return *names_; }
  NameId root() const noexcept { return root_; }

  /// Nodes in the tree, the root included.
  std::size_t node_count() const noexcept { return node_count_; }

  /// Number of black nodes.  O(table size); meant for per-day summaries
  /// and tests, not hot loops.
  std::size_t black_count() const noexcept;

  /// True when `id` was interned as a name (the root included).
  bool is_name(NameId id) const noexcept {
    return id == root_ ||
           (id < nodes_.size() && nodes_[id].parent != kInvalidNameId);
  }
  bool contains(NameId id) const noexcept {
    return id < nodes_.size() && nodes_[id].in_tree != 0;
  }
  bool black(NameId id) const noexcept { return nodes_[id].black != 0; }
  std::size_t depth(NameId id) const noexcept { return nodes_[id].depth; }
  /// kInvalidNameId for the root.
  NameId parent(NameId id) const noexcept { return nodes_[id].parent; }
  /// A node's children in insertion order: first_child, then
  /// next_sibling until kInvalidNameId.
  NameId first_child(NameId id) const noexcept {
    return nodes_[id].first_child;
  }
  NameId next_sibling(NameId id) const noexcept {
    return nodes_[id].next_sibling;
  }
  /// The node's full name ("" for the root) and its leftmost label.
  std::string_view name(NameId id) const noexcept { return names_->name(id); }
  std::string_view label(NameId id) const noexcept {
    const std::string_view text = names_->name(id);
    return text.substr(0, text.find('.'));
  }

  /// Turns a black node white.  Writes only the node's own black byte, so
  /// concurrent decolors in disjoint subtrees are race-free.
  void decolor(NameId id) noexcept { nodes_[id].black = 0; }

  /// Unions `other`, a tree over another table, into this one.
  /// `remap[i]` is this table's id for other's id i (see
  /// NameTable::intern_all).  Every name of `other` becomes a name here,
  /// every node of `other` joins this tree, and black nodes stay black
  /// (black |= other.black).
  void merge_from(const DomainNameTree& other, std::span<const NameId> remap);

  /// All black descendants of `zone` (excluding `zone` itself), grouped by
  /// absolute depth — the paper's G_k sets.
  std::map<std::size_t, std::vector<NameId>> black_descendants_by_depth(
      NameId zone) const;

  /// True if `zone` has at least one black proper descendant.
  bool has_black_descendant(NameId zone) const noexcept;

  /// The effective-2LD nodes: children of public-suffix nodes that are not
  /// public suffixes themselves.  Algorithm 1 starts from these.
  std::vector<NameId> effective_2ld_nodes(const PublicSuffixList& psl) const;

 private:
  struct Node {
    NameId parent = kInvalidNameId;  // invalid: not a name, or the root
    NameId first_child = kInvalidNameId;
    NameId last_child = kInvalidNameId;
    NameId next_sibling = kInvalidNameId;
    std::uint8_t depth = 0;  // a name has at most 127 labels
    std::uint8_t black = 0;
    std::uint8_t in_tree = 0;
  };

  /// Sizes the per-id state to the table.
  void grow() {
    if (nodes_.size() < names_->size()) nodes_.resize(names_->size());
  }
  /// Links `id` and its missing ancestors into their parents' child lists.
  void link(NameId id);

  NameTable* names_;
  std::vector<Node> nodes_;  // indexed by NameId
  NameId root_;
  std::size_t node_count_ = 1;
};

}  // namespace dnsnoise
