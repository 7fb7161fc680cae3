// DomainName: a normalized DNS domain name with O(1) label access.
//
// Names are stored lowercase with no trailing dot.  The paper's notation
// (Section III-B) indexes labels from the right: TLD(d) is the rightmost
// label, 2LD(d) the two rightmost, and NLD(d, n) the n rightmost labels.
// This class supports both that right-anchored view and the left-to-right
// label view used when walking the domain name tree.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dnsnoise {

/// True if the normalized name `name` equals `zone` or is underneath it
/// (suffix match at a label boundary).
bool name_within(std::string_view name, std::string_view zone) noexcept;

class DomainName {
 public:
  /// Maximum presentation length we accept (RFC 1035: 253 visible chars).
  static constexpr std::size_t kMaxTextLength = 253;
  /// Maximum single-label length (RFC 1035).
  static constexpr std::size_t kMaxLabelLength = 63;

  DomainName() = default;

  /// Normalizing constructor; throws std::invalid_argument on malformed
  /// input.  Accepts an optional trailing dot and uppercase letters.
  explicit DomainName(std::string_view text);

  /// Non-throwing validating parse.
  static std::optional<DomainName> parse(std::string_view text);

  /// Re-parses `text` into this object, reusing the existing text and
  /// offset capacity — the allocation-free path for scratch names that are
  /// re-assigned per query.  Returns false (leaving the name empty) on
  /// malformed input.
  bool assign(std::string_view text);

  /// True for the empty (root) name.
  bool empty() const noexcept { return text_.empty(); }

  /// Normalized presentation form (lowercase, no trailing dot).
  const std::string& text() const noexcept { return text_; }

  /// Number of labels; 0 for the root.
  std::size_t label_count() const noexcept { return offsets_.size(); }

  /// i-th label left-to-right (0 is the leftmost, most specific label).
  std::string_view label(std::size_t i) const;

  /// i-th label right-to-left (0 is the TLD-side label).
  std::string_view label_from_right(std::size_t i) const {
    return label(label_count() - 1 - i);
  }

  /// All labels, left-to-right, as views into this object.
  std::vector<std::string_view> labels() const;

  /// Allocation-free label range, left-to-right.  Iterators stay valid
  /// while this DomainName is alive and unmodified; hot callers (tree
  /// insert, feature extraction) use this instead of labels().
  class LabelRange {
   public:
    class iterator {
     public:
      using value_type = std::string_view;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(const DomainName* name, std::size_t index) noexcept
          : name_(name), index_(index) {}

      std::string_view operator*() const { return name_->label(index_); }
      iterator& operator++() noexcept {
        ++index_;
        return *this;
      }
      iterator operator++(int) noexcept {
        iterator old = *this;
        ++index_;
        return old;
      }
      friend bool operator==(const iterator&, const iterator&) = default;

     private:
      const DomainName* name_ = nullptr;
      std::size_t index_ = 0;
    };

    explicit LabelRange(const DomainName& name) noexcept : name_(&name) {}
    iterator begin() const noexcept { return {name_, 0}; }
    iterator end() const noexcept { return {name_, name_->label_count()}; }
    std::size_t size() const noexcept { return name_->label_count(); }

   private:
    const DomainName* name_;
  };

  /// The labels as an allocation-free range (see LabelRange).
  LabelRange label_range() const noexcept { return LabelRange(*this); }

  /// The n rightmost labels as a new name (paper's NLD).  n >= label_count()
  /// returns the whole name; n == 0 returns the root.
  DomainName nld(std::size_t n) const;

  /// The n rightmost labels as a view into this name's text (zero-copy).
  std::string_view nld_view(std::size_t n) const;

  /// Name with the leftmost label removed; root if single-label.
  DomainName parent() const;

  /// True if this name equals `zone` or is underneath it.
  bool is_within(const DomainName& zone) const noexcept {
    return is_within(zone.text());
  }
  bool is_within(std::string_view zone) const noexcept {
    return name_within(text_, zone);
  }

  /// Name formed by prepending `child_label` (e.g. "www" + example.com).
  DomainName child(std::string_view child_label) const;

  friend bool operator==(const DomainName&, const DomainName&) = default;
  friend std::strong_ordering operator<=>(const DomainName& a,
                                          const DomainName& b) {
    return a.text_ <=> b.text_;
  }

 private:
  // Byte offset of the start of every label within text_, left-to-right.
  std::string text_;
  std::vector<std::uint16_t> offsets_;

  void index_labels();

  /// One-pass normalize via the vectorized dot-scan kernel: validates,
  /// lowercases, and indexes labels together.  Returns false (leaving the
  /// name empty) on malformed input; reuses existing capacity, so
  /// steady-state re-assign is allocation-free.
  bool scan_into(std::string_view text);
};

}  // namespace dnsnoise

template <>
struct std::hash<dnsnoise::DomainName> {
  std::size_t operator()(const dnsnoise::DomainName& n) const noexcept {
    return std::hash<std::string>{}(n.text());
  }
};
