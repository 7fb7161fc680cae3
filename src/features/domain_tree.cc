#include "features/domain_tree.h"

namespace dnsnoise {

DomainNameTree::DomainNameTree(NameTable& names)
    : names_(&names), root_(names.intern("")) {
  grow();
  nodes_[root_].in_tree = 1;
}

NameId DomainNameTree::intern(std::string_view name, std::uint64_t hash) {
  const NameId id = names_->intern(name, hash);
  if (is_name(id)) return id;
  // Suffixes first, so the parent's id and depth are known.
  const std::size_t dot = name.find('.');
  const NameId parent =
      dot == std::string_view::npos ? root_ : intern(name.substr(dot + 1));
  grow();
  nodes_[id].parent = parent;
  nodes_[id].depth = static_cast<std::uint8_t>(nodes_[parent].depth + 1);
  return id;
}

void DomainNameTree::link(NameId id) {
  while (nodes_[id].in_tree == 0) {
    Node& node = nodes_[id];
    node.in_tree = 1;
    ++node_count_;
    Node& parent = nodes_[node.parent];
    if (parent.first_child == kInvalidNameId) {
      parent.first_child = id;
    } else {
      nodes_[parent.last_child].next_sibling = id;
    }
    parent.last_child = id;
    id = node.parent;
  }
}

void DomainNameTree::insert(NameId id) {
  link(id);
  if (id != root_) nodes_[id].black = 1;
}

NameId DomainNameTree::find(std::string_view name) const noexcept {
  const NameId id = names_->find(name);
  return id != kInvalidNameId && contains(id) ? id : kInvalidNameId;
}

std::size_t DomainNameTree::black_count() const noexcept {
  std::size_t count = 0;
  for (const Node& node : nodes_) count += node.black;
  return count;
}

void DomainNameTree::merge_from(const DomainNameTree& other,
                                std::span<const NameId> remap) {
  grow();
  // Names first, so every node below has its parent chain here.
  for (NameId id = 0; id < other.nodes_.size(); ++id) {
    const Node& src = other.nodes_[id];
    if (src.parent == kInvalidNameId) continue;
    Node& dst = nodes_[remap[id]];
    if (dst.parent != kInvalidNameId) continue;
    dst.parent = remap[src.parent];
    dst.depth = src.depth;
  }
  for (NameId id = 0; id < other.nodes_.size(); ++id) {
    const Node& src = other.nodes_[id];
    if (src.in_tree == 0) continue;
    link(remap[id]);
    if (src.black != 0) nodes_[remap[id]].black = 1;
  }
}

namespace {

void collect_black(const DomainNameTree& tree, NameId node,
                   std::map<std::size_t, std::vector<NameId>>& groups) {
  for (NameId child = tree.first_child(node); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    if (tree.black(child)) groups[tree.depth(child)].push_back(child);
    collect_black(tree, child, groups);
  }
}

}  // namespace

std::map<std::size_t, std::vector<NameId>>
DomainNameTree::black_descendants_by_depth(NameId zone) const {
  std::map<std::size_t, std::vector<NameId>> groups;
  collect_black(*this, zone, groups);
  return groups;
}

bool DomainNameTree::has_black_descendant(NameId zone) const noexcept {
  for (NameId child = first_child(zone); child != kInvalidNameId;
       child = next_sibling(child)) {
    if (black(child) || has_black_descendant(child)) return true;
  }
  return false;
}

namespace {

void collect_2lds(const DomainNameTree& tree, NameId node,
                  const PublicSuffixList& psl, std::vector<NameId>& out) {
  for (NameId child = tree.first_child(node); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    const DomainName child_domain(tree.name(child));
    if (psl.suffix_label_count(child_domain) == child_domain.label_count()) {
      // This node is itself a public suffix; its children may be 2LDs.
      collect_2lds(tree, child, psl, out);
    } else {
      out.push_back(child);
    }
  }
}

}  // namespace

std::vector<NameId> DomainNameTree::effective_2ld_nodes(
    const PublicSuffixList& psl) const {
  std::vector<NameId> out;
  collect_2lds(*this, root_, psl, out);
  return out;
}

}  // namespace dnsnoise
