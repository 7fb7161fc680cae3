// Label generators: the building blocks of synthetic domain names.
//
// Disposable names (paper Fig. 6) are produced by software composing labels
// level by level — hash digests, counters, metric blobs, fixed protocol
// tags.  A NamePattern is an ordered list of per-level generators (leftmost
// label first) applied on top of a zone apex; it reproduces the structural
// property the classifier keys on: same depth, algorithmic label sets.
//
// Every generator offers two forms drawing the SAME RNG sequence: generate()
// returns a fresh string, append_to() appends into a caller-owned buffer so
// the steady-state sampling path reuses capacity and never allocates.
#pragma once

#include <charconv>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dnsnoise {

namespace detail {

/// Appends the decimal rendering of `value` (allocation-free).
inline void append_decimal(std::string& out, std::uint64_t value) {
  char buf[20];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

}  // namespace detail

/// Generates one label of a domain name.
class LabelGenerator {
 public:
  virtual ~LabelGenerator() = default;
  virtual std::string generate(Rng& rng) const = 0;
  /// Appends one label to `out`, consuming exactly the same RNG draws as
  /// generate().
  virtual void append_to(std::string& out, Rng& rng) const {
    out += generate(rng);
  }
};

/// Constant label ("p2", "avqs", "device").
class FixedLabel final : public LabelGenerator {
 public:
  explicit FixedLabel(std::string value) : value_(std::move(value)) {}
  std::string generate(Rng&) const override { return value_; }
  void append_to(std::string& out, Rng&) const override { out += value_; }

 private:
  std::string value_;
};

/// Uniform random string over an alphabet (hex digests, base32/36 hashes).
class RandomStringLabel final : public LabelGenerator {
 public:
  RandomStringLabel(std::string alphabet, std::size_t length)
      : alphabet_(std::move(alphabet)), length_(length) {}

  static std::unique_ptr<RandomStringLabel> hex(std::size_t length) {
    return std::make_unique<RandomStringLabel>("0123456789abcdef", length);
  }
  static std::unique_ptr<RandomStringLabel> base32(std::size_t length) {
    return std::make_unique<RandomStringLabel>(
        "abcdefghijklmnopqrstuvwxyz234567", length);
  }
  static std::unique_ptr<RandomStringLabel> base36(std::size_t length) {
    return std::make_unique<RandomStringLabel>(
        "abcdefghijklmnopqrstuvwxyz0123456789", length);
  }

  std::string generate(Rng& rng) const override {
    return rng.string_over(alphabet_, length_);
  }
  void append_to(std::string& out, Rng& rng) const override {
    // Same per-character draws as Rng::string_over.
    for (std::size_t i = 0; i < length_; ++i) {
      out.push_back(alphabet_[rng.below(alphabet_.size())]);
    }
  }

 private:
  std::string alphabet_;
  std::size_t length_;
};

/// Random decimal counter in [lo, hi] (device IDs, experiment counters).
class CounterLabel final : public LabelGenerator {
 public:
  CounterLabel(std::uint64_t lo, std::uint64_t hi) : lo_(lo), hi_(hi) {}
  std::string generate(Rng& rng) const override {
    return std::to_string(lo_ + rng.below(hi_ - lo_ + 1));
  }
  void append_to(std::string& out, Rng& rng) const override {
    detail::append_decimal(out, lo_ + rng.below(hi_ - lo_ + 1));
  }

 private:
  std::uint64_t lo_;
  std::uint64_t hi_;
};

/// One label drawn uniformly from a fixed small set ("i1"/"i2"/"s1",
/// "ds"/"v4").
class ChoiceLabel final : public LabelGenerator {
 public:
  explicit ChoiceLabel(std::vector<std::string> choices)
      : choices_(std::move(choices)) {}
  std::string generate(Rng& rng) const override {
    return choices_[rng.below(choices_.size())];
  }
  void append_to(std::string& out, Rng& rng) const override {
    out += choices_[rng.below(choices_.size())];
  }

 private:
  std::vector<std::string> choices_;
};

/// eSoft-style telemetry blob: "<tag>-<num>[-<num>...][-0-p-<num>]".
class MetricsLabel final : public LabelGenerator {
 public:
  /// `tag`: metric name ("load", "up", "mem", "swap");
  /// `fields`: how many dash-separated numbers follow;
  /// `percent_suffix`: whether to append "-0-p-<0..99>".
  MetricsLabel(std::string tag, int fields, bool percent_suffix)
      : tag_(std::move(tag)), fields_(fields), percent_(percent_suffix) {}

  std::string generate(Rng& rng) const override;
  void append_to(std::string& out, Rng& rng) const override;

 private:
  std::string tag_;
  int fields_;
  bool percent_;
};

/// Human-chosen hostname from a service dictionary ("www", "mail",
/// "api3", ...) — the low-entropy contrast class.
class HumanLabel final : public LabelGenerator {
 public:
  /// `variants`: how many distinct labels this instance can emit.
  explicit HumanLabel(std::size_t variants = 32);
  std::string generate(Rng& rng) const override;
  void append_to(std::string& out, Rng& rng) const override {
    out += pool_[rng.below(pool_.size())];
  }

 private:
  std::vector<std::string> pool_;
};

/// Reversed-IPv4 DNSBL query: emits four octet labels in one go is not
/// possible per-label, so this emits a single label; DNSBL patterns use
/// four OctetLabel levels.
class OctetLabel final : public LabelGenerator {
 public:
  std::string generate(Rng& rng) const override {
    return std::to_string(rng.below(256));
  }
  void append_to(std::string& out, Rng& rng) const override {
    detail::append_decimal(out, rng.below(256));
  }
};

/// Deterministic human hostname for index i ("www", "mail", ..., "www2").
std::string human_hostname(std::size_t i);

/// Appends human_hostname(i) without allocating.
void human_hostname_into(std::size_t i, std::string& out);

/// Deterministic pronounceable pseudo-word for index i.  Distinct indices
/// yield distinct words (base-syllable encoding), padded to `min_len`.
std::string pseudo_word(std::uint64_t i, std::size_t min_len = 5);

/// Appends pseudo_word(i, min_len) without allocating.
void pseudo_word_into(std::uint64_t i, std::string& out,
                      std::size_t min_len = 5);

/// An ordered list of per-level generators, leftmost label first.
class NamePattern {
 public:
  NamePattern() = default;
  explicit NamePattern(std::vector<std::unique_ptr<LabelGenerator>> levels)
      : levels_(std::move(levels)) {}

  void add(std::unique_ptr<LabelGenerator> level) {
    levels_.push_back(std::move(level));
  }

  std::size_t depth() const noexcept { return levels_.size(); }

  /// Renders the child part (no apex), e.g. "p2.a22a43lt5rwfg.191742.i1.v4".
  std::string generate(Rng& rng) const;

  /// Appends what generate() would return (same RNG draws, no allocation
  /// once `out` has capacity).
  void generate_into(std::string& out, Rng& rng) const;

 private:
  std::vector<std::unique_ptr<LabelGenerator>> levels_;
};

}  // namespace dnsnoise
