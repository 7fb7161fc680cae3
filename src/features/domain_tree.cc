#include "features/domain_tree.h"

#include "util/rng.h"

namespace dnsnoise {

DomainNameTree::DomainNameTree() {
  nodes_.emplace_back();  // the root: seq 0, empty label
  root_ = &nodes_.front();
  edge_grow(64);
}

void DomainNameTree::edge_grow(std::size_t min_slots) {
  std::size_t n = 64;
  while (n < min_slots) n <<= 1;
  std::vector<Edge> fresh(n);
  const std::size_t mask = n - 1;
  for (const Edge& edge : edges_) {
    if (edge.child == nullptr) continue;
    std::size_t i = static_cast<std::size_t>(mix64(edge.key)) & mask;
    while (fresh[i].child != nullptr) i = (i + 1) & mask;
    fresh[i] = edge;
  }
  edges_.swap(fresh);
  edge_mask_ = mask;
}

DomainNameTree::Node* DomainNameTree::find_child(
    const Node& parent, std::string_view label) const noexcept {
  const LabelId lid = table_.find_label(label);
  if (lid == kInvalidNameId) return nullptr;
  const std::uint64_t key = edge_key(parent, lid);
  std::size_t i = static_cast<std::size_t>(mix64(key)) & edge_mask_;
  while (true) {
    const Edge& edge = edges_[i];
    if (edge.child == nullptr) return nullptr;
    if (edge.key == key) return edge.child;
    i = (i + 1) & edge_mask_;
  }
}

DomainNameTree::Node& DomainNameTree::child_of(Node& parent,
                                               std::string_view label) {
  const LabelId lid = table_.intern_label(label);
  const std::uint64_t key = edge_key(parent, lid);
  std::size_t i = static_cast<std::size_t>(mix64(key)) & edge_mask_;
  while (true) {
    const Edge& edge = edges_[i];
    if (edge.child == nullptr) break;
    if (edge.key == key) return *edge.child;
    i = (i + 1) & edge_mask_;
  }
  // New edge: grow first (re-probing afterwards) so load stays below 7/8.
  if (edge_count_ + edge_count_ / 7 + 1 >= edges_.size()) {
    edge_grow(edges_.size() * 2);
    i = static_cast<std::size_t>(mix64(key)) & edge_mask_;
    while (edges_[i].child != nullptr) i = (i + 1) & edge_mask_;
  }
  nodes_.emplace_back();
  Node& node = nodes_.back();
  node.label = table_.label(lid);
  node.parent = &parent;
  node.depth = parent.depth + 1;
  node.seq = static_cast<std::uint32_t>(nodes_.size() - 1);
  parent.kids_.push_back(&node);
  if (parent.kids_.size() > 1) parent.kids_sorted_ = false;
  edges_[i] = Edge{key, &node};
  ++edge_count_;
  ++node_count_;
  return node;
}

DomainNameTree::Node& DomainNameTree::insert(std::string_view name) {
  Node* node = root_;
  // Walk right-to-left: TLD first.
  std::size_t end = name.size();
  while (end > 0) {
    const std::size_t dot = name.rfind('.', end - 1);
    const std::size_t start = dot == std::string_view::npos ? 0 : dot + 1;
    node = &child_of(*node, name.substr(start, end - start));
    end = dot == std::string_view::npos ? 0 : dot;
  }
  if (node != root_) node->black = true;
  return *node;
}

DomainNameTree::Node* DomainNameTree::find(const DomainName& name) {
  Node* node = root_;
  for (std::size_t i = 0; i < name.label_count(); ++i) {
    node = find_child(*node, name.label_from_right(i));
    if (node == nullptr) return nullptr;
  }
  return node;
}

namespace {

std::size_t count_black(const DomainNameTree::Node& node) {
  std::size_t count = node.black ? 1 : 0;
  for (const DomainNameTree::Node* child : node.kids_) {
    count += count_black(*child);
  }
  return count;
}

}  // namespace

std::size_t DomainNameTree::black_count() const noexcept {
  return count_black(*root_);
}

void DomainNameTree::merge_from(const DomainNameTree& other) {
  // Recursive union; `dst` and `src` are corresponding nodes.  Iterates
  // src children in insertion order — cheaper than sorting, and the merged
  // traversal order is label-sorted on demand either way.
  const auto merge_node = [this](auto&& self, Node& dst,
                                 const Node& src) -> void {
    if (src.black) dst.black = true;
    for (const Node* src_child : src.kids_) {
      self(self, child_of(dst, src_child->label), *src_child);
    }
  };
  merge_node(merge_node, *root_, *other.root_);
}

void DomainNameTree::full_name_into(const Node& node, std::string& out) {
  out.clear();
  if (node.parent == nullptr) return;
  out.append(node.label);
  for (const Node* up = node.parent; up != nullptr && up->parent != nullptr;
       up = up->parent) {
    out.push_back('.');
    out.append(up->label);
  }
}

std::string DomainNameTree::full_name(const Node& node) {
  std::string name;
  full_name_into(node, name);
  return name;
}

namespace {

void collect_black(const DomainNameTree::Node& node,
                   std::map<std::size_t, std::vector<DomainNameTree::Node*>>&
                       groups) {
  for (DomainNameTree::Node* child : node.children()) {
    if (child->black) groups[child->depth].push_back(child);
    collect_black(*child, groups);
  }
}

}  // namespace

std::map<std::size_t, std::vector<DomainNameTree::Node*>>
DomainNameTree::black_descendants_by_depth(Node& zone) const {
  std::map<std::size_t, std::vector<Node*>> groups;
  collect_black(zone, groups);
  return groups;
}

bool DomainNameTree::has_black_descendant(const Node& zone) noexcept {
  for (const Node* child : zone.kids_) {
    if (child->black || has_black_descendant(*child)) return true;
  }
  return false;
}

namespace {

void collect_2lds(DomainNameTree::Node& node, const std::string& suffix_name,
                  const PublicSuffixList& psl,
                  std::vector<DomainNameTree::Node*>& out) {
  for (DomainNameTree::Node* child : node.children()) {
    const std::string child_name =
        suffix_name.empty()
            ? std::string(child->label)
            : std::string(child->label) + "." + suffix_name;
    const DomainName child_domain(child_name);
    if (psl.suffix_label_count(child_domain) == child_domain.label_count()) {
      // This node is itself a public suffix; its children may be 2LDs.
      collect_2lds(*child, child_name, psl, out);
    } else {
      out.push_back(child);
    }
  }
}

}  // namespace

std::vector<DomainNameTree::Node*> DomainNameTree::effective_2ld_nodes(
    const PublicSuffixList& psl) {
  std::vector<Node*> out;
  collect_2lds(*root_, "", psl, out);
  return out;
}

}  // namespace dnsnoise
