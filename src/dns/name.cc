#include "dns/name.h"

#include <stdexcept>

#include "util/simd/kernels.h"

namespace dnsnoise {

// Both parse entry points funnel into scan_into: one pass of the
// dot-scan kernel (kernels::normalize_name) classifies, lowercases, and
// splits the name (16 bytes per step on x86-64), emitting the label-start
// offsets directly — the per-character isalnum/tolower loop is gone.
bool DomainName::scan_into(std::string_view text) {
  if (!text.empty() && text.back() == '.') text.remove_suffix(1);
  text_.clear();
  offsets_.clear();
  if (text.empty()) return true;
  if (text.size() > kMaxTextLength) return false;
  char out[kMaxTextLength];
  std::uint16_t offsets[kMaxTextLength / 2 + 2];
  const kernels::NameScan scan = kernels::normalize_name(text, out, offsets);
  if (!scan.ok) return false;
  text_.assign(out, text.size());
  offsets_.assign(offsets, offsets + scan.label_count);
  return true;
}

DomainName::DomainName(std::string_view text) {
  if (!scan_into(text)) {
    throw std::invalid_argument("DomainName: malformed name");
  }
}

std::optional<DomainName> DomainName::parse(std::string_view text) {
  DomainName name;
  if (!name.scan_into(text)) return std::nullopt;
  return name;
}

bool DomainName::assign(std::string_view text) { return scan_into(text); }

void DomainName::index_labels() {
  offsets_.clear();
  if (text_.empty()) return;
  offsets_.push_back(0);
  for (std::size_t i = 0; i < text_.size(); ++i) {
    if (text_[i] == '.') offsets_.push_back(static_cast<std::uint16_t>(i + 1));
  }
}

std::string_view DomainName::label(std::size_t i) const {
  if (i >= offsets_.size()) throw std::out_of_range("DomainName::label");
  const std::size_t start = offsets_[i];
  const std::size_t end =
      i + 1 < offsets_.size() ? offsets_[i + 1] - 1 : text_.size();
  return std::string_view(text_).substr(start, end - start);
}

std::vector<std::string_view> DomainName::labels() const {
  std::vector<std::string_view> out;
  out.reserve(offsets_.size());
  for (std::size_t i = 0; i < offsets_.size(); ++i) out.push_back(label(i));
  return out;
}

std::string_view DomainName::nld_view(std::size_t n) const {
  if (n == 0) return {};
  if (n >= offsets_.size()) return text_;
  const std::size_t start = offsets_[offsets_.size() - n];
  return std::string_view(text_).substr(start);
}

DomainName DomainName::nld(std::size_t n) const {
  DomainName out;
  out.text_ = std::string(nld_view(n));
  out.index_labels();
  return out;
}

DomainName DomainName::parent() const {
  if (offsets_.size() <= 1) return {};
  DomainName out;
  out.text_ = text_.substr(offsets_[1]);
  out.index_labels();
  return out;
}

bool name_within(std::string_view name, std::string_view zone) noexcept {
  if (zone.empty()) return true;  // everything is under the root
  if (name.size() < zone.size()) return false;
  if (name.size() == zone.size()) return name == zone;
  // Must be a proper subdomain: suffix match at a label boundary.
  const std::size_t cut = name.size() - zone.size();
  return name[cut - 1] == '.' && name.substr(cut) == zone;
}

DomainName DomainName::child(std::string_view child_label) const {
  std::string combined(child_label);
  if (!text_.empty()) {
    combined.push_back('.');
    combined.append(text_);
  }
  return DomainName(combined);
}

}  // namespace dnsnoise
