#include "features/domain_tree.h"

#include <algorithm>

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
                   std::vector<std::vector<NameId>>& buckets, std::size_t& end,
                   std::size_t& size) {
  for (NameId child = tree.first_child(node); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    if (tree.black(child)) {
      const std::size_t depth = tree.depth(child);
      if (depth >= buckets.size()) buckets.resize(depth + 1);
      buckets[depth].push_back(child);
      end = std::max(end, depth + 1);
      ++size;
    }
    collect_black(tree, child, buckets, end, size);
  }
}

}  // namespace

void DomainNameTree::black_descendants_by_depth(NameId zone,
                                                DepthGroups& out) const {
  for (std::size_t depth = out.begin_; depth < out.end_; ++depth) {
    out.buckets_[depth].clear();
  }
  out.begin_ = depth(zone) + 1;
  out.end_ = out.begin_;
  out.size_ = 0;
  collect_black(*this, zone, out.buckets_, out.end_, out.size_);
}

namespace {

bool is_public_suffix(const DomainNameTree& tree, NameId node,
                      const PublicSuffixList& psl) {
  return psl.suffix_label_count(tree.name(node)) == tree.depth(node);
}

void collect_2lds(const DomainNameTree& tree, NameId node,
                  const PublicSuffixList& psl, const ParallelFor& parallel_for,
                  std::vector<NameId>& out) {
  // Children probed per parallel block; fewer stay on this thread.
  constexpr std::size_t kBlock = 1024;
  std::vector<NameId> children;
  for (NameId child = tree.first_child(node); child != kInvalidNameId;
       child = tree.next_sibling(child)) {
    if (parallel_for) {
      children.push_back(child);
    } else if (is_public_suffix(tree, child, psl)) {
      // This node is itself a public suffix; its children may be 2LDs.
      collect_2lds(tree, child, psl, parallel_for, out);
    } else {
      out.push_back(child);
    }
  }
  if (children.empty()) return;
  std::vector<std::uint8_t> suffix(children.size());
  const auto probe = [&](std::size_t block) {
    const std::size_t end = std::min(children.size(), (block + 1) * kBlock);
    for (std::size_t i = block * kBlock; i < end; ++i) {
      suffix[i] = is_public_suffix(tree, children[i], psl) ? 1 : 0;
    }
  };
  const std::size_t blocks = (children.size() + kBlock - 1) / kBlock;
  if (blocks > 1) {
    parallel_for(blocks, probe);
  } else {
    probe(0);
  }
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (suffix[i] != 0) {
      collect_2lds(tree, children[i], psl, parallel_for, out);
    } else {
      out.push_back(children[i]);
    }
  }
}

}  // namespace

std::vector<NameId> DomainNameTree::effective_2ld_nodes(
    const PublicSuffixList& psl, const ParallelFor& parallel_for) const {
  std::vector<NameId> out;
  collect_2lds(*this, root_, psl, parallel_for, out);
  return out;
}

}  // namespace dnsnoise
