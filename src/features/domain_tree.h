// Domain name tree (paper Section V-A1).
//
// The root is ".", its children are TLD labels, and so on.  A node is
// *black* when a resource record for that exact name was observed in the
// day's traffic; decoloring a node (after its group is classified
// disposable) turns it white so deeper passes of Algorithm 1 don't count it
// again.  Depth is the label count of a node's name (path length to root).
//
// Layout (DESIGN.md §11): nodes are flat records in a deque (stable
// addresses, no per-node unique_ptr), labels are interned into the tree's
// NameTable so each distinct label is stored once, and child lookup goes
// through one tree-wide open-addressed edge map keyed (parent seq,
// LabelId).  Children are kept per node in insertion order and lazily
// sorted by label text on first sorted traversal — exactly the ordering
// the previous std::map<std::string, unique_ptr<Node>> produced, so miner
// output is byte-identical while the steady-state insert path (all labels
// already interned, all edges present) performs zero allocations.
//
// Thread-safety contract: the lazy child sort mutates a node under a const
// traversal, which is safe under the parallel miner's existing discipline —
// effective-2LD subtrees are disjoint, each worker only traverses and
// decolors nodes of its own subtree, and the subtree roots themselves are
// collected single-threaded before the workers start.  Concurrent sorted
// traversals of the SAME node from different threads are not allowed (and
// never happen under that contract).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name.h"
#include "dns/name_table.h"
#include "dns/public_suffix.h"

namespace dnsnoise {

class DomainNameTree {
 public:
  struct Node {
    std::string_view label;  // stable view into the tree's label arena
    Node* parent = nullptr;
    std::size_t depth = 0;  // 0 for the root
    bool black = false;
    std::uint32_t seq = 0;  // dense per-tree node number (edge-map key)

    /// Children sorted by label text (the deterministic traversal order of
    /// the legacy ordered-map layout).  Sorts lazily on first call after an
    /// insertion; see the thread-safety contract above.
    std::span<Node* const> children() const {
      if (!kids_sorted_) {
        std::sort(kids_.begin(), kids_.end(),
                  [](const Node* a, const Node* b) {
                    return a->label < b->label;
                  });
        kids_sorted_ = true;
      }
      return kids_;
    }

    bool leaf() const noexcept { return kids_.empty(); }

    // Internal child storage (insertion order until lazily sorted).  Public
    // because Node is an aggregate handled by the tree; treat as private.
    mutable std::vector<Node*> kids_;
    mutable bool kids_sorted_ = true;
  };

  DomainNameTree();

  DomainNameTree(const DomainNameTree&) = delete;
  DomainNameTree& operator=(const DomainNameTree&) = delete;
  DomainNameTree(DomainNameTree&&) = default;
  DomainNameTree& operator=(DomainNameTree&&) = default;

  /// Inserts `name`, marking its node black.  Intermediate nodes stay
  /// white unless they are themselves inserted.  Allocation-free when the
  /// name's path already exists.
  Node& insert(const DomainName& name) { return insert(name.text()); }
  /// insert() for a normalized name's text (lowercase, no trailing dot).
  Node& insert(std::string_view name);

  /// Finds the node for `name`, or nullptr.  Never allocates.
  Node* find(const DomainName& name);
  const Node* find(const DomainName& name) const {
    return const_cast<DomainNameTree*>(this)->find(name);
  }

  Node& root() noexcept { return *root_; }
  const Node& root() const noexcept { return *root_; }

  std::size_t node_count() const noexcept { return node_count_; }

  /// Number of black nodes, counted by traversal.  O(node_count); meant for
  /// per-day summaries and tests, not hot loops.
  std::size_t black_count() const noexcept;

  /// Turns a black node white.  Touches only `node` — no shared tree state —
  /// so concurrent decolors in disjoint subtrees are race-free (the parallel
  /// miner relies on this).
  static void decolor(Node& node) noexcept { node.black = false; }

  /// Unions `other` into this tree: every node of `other` is created here
  /// if absent, and black nodes stay black (black |= other.black).  Node and
  /// black counts follow.  Labels are remapped through their text into this
  /// tree's intern table, and traversal stays label-sorted, so the merged
  /// order is independent of merge order (shard merging).
  void merge_from(const DomainNameTree& other);

  /// Reconstructs the full domain name of a node ("" for the root).
  static std::string full_name(const Node& node);

  /// Appends nothing for the root; otherwise replaces `out` with the node's
  /// full name.  Allocation-free once `out` has capacity (hot callers reuse
  /// one buffer across nodes).
  static void full_name_into(const Node& node, std::string& out);

  /// All black descendants of `zone` (excluding `zone` itself), grouped by
  /// absolute depth — the paper's G_k sets.
  std::map<std::size_t, std::vector<Node*>> black_descendants_by_depth(
      Node& zone) const;

  /// True if `zone` has at least one black proper descendant.
  static bool has_black_descendant(const Node& zone) noexcept;

  /// The effective-2LD nodes: children of public-suffix nodes that are not
  /// public suffixes themselves.  Algorithm 1 starts from these.
  std::vector<Node*> effective_2ld_nodes(const PublicSuffixList& psl);

 private:
  /// Child of `parent` labeled `label`, created if absent.
  Node& child_of(Node& parent, std::string_view label);

  /// Edge-map lookup; kInvalidNameId-safe (returns nullptr when the label
  /// was never interned).
  Node* find_child(const Node& parent, std::string_view label) const noexcept;

  void edge_grow(std::size_t min_slots);
  static std::uint64_t edge_key(const Node& parent, LabelId label) noexcept {
    return (static_cast<std::uint64_t>(parent.seq) << 32) |
           static_cast<std::uint64_t>(label);
  }

  struct Edge {
    std::uint64_t key = 0;
    Node* child = nullptr;  // nullptr = empty slot
  };

  NameTable table_{/*track_labels=*/true};
  std::deque<Node> nodes_;  // stable node addresses; nodes_[0] is the root
  std::vector<Edge> edges_;
  std::size_t edge_mask_ = 0;
  std::size_t edge_count_ = 0;
  Node* root_ = nullptr;
  std::size_t node_count_ = 1;
};

}  // namespace dnsnoise
