// dnsnoise::kernels — batch kernels for the mining hot path.
//
// The LAD miner spends its time in three embarrassingly data-parallel
// loops: per-label character histograms (Shannon entropy, Section V-A2),
// batched entropy over interned label/name arrays, and the dot-scan that
// normalizes every DomainName the capture path decodes.  Each job has one
// implementation, chosen at build time (DESIGN.md §15):
//  - histograms and entropy: the scalar counting loop on every target
//    (vector histograms lose to it at DNS label and name sizes);
//  - the name dot-scan: the SSE2 kernel on x86-64, whose ABI guarantees
//    SSE2, and the scalar scan on every other target and in builds
//    configured with -DDNSNOISE_DISABLE_SIMD=ON.
//
// Determinism contract: the SSE2 scan vectorizes only integer work (class
// masks, label offsets), so both builds produce byte-identical names,
// findings and goldens.  tests/simd_kernels_test.cpp runs the SSE2 scan
// against the scalar one wherever the build compiles it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace dnsnoise::kernels {

/// The name-scan kernel this build compiled in: "sse2" or "scalar".
const char* scan_kernel() noexcept;

// ---------------------------------------------------------------------------
// Character histograms
//
// A CharHist is a reusable workspace: 256 byte counts plus a 256-bit
// presence bitmap that makes both the entropy reduction and the cleanup
// O(distinct symbols) instead of O(256).  The intended cycle is
// hist_init once, then per string: hist_build -> entropy_from_hist ->
// hist_reset.

struct CharHist {
  std::uint32_t counts[256];
  std::uint64_t present[4];  // bit c set <=> counts[c] > 0
};

/// Zeroes the whole workspace (once per workspace, not per string).
void hist_init(CharHist& hist) noexcept;

/// Fills counts/present for the bytes of `s`.  Requires a clean workspace
/// (fresh hist_init or hist_reset); does not accumulate across strings.
void hist_build(CharHist& hist, std::string_view s) noexcept;

/// Clears only the buckets hist_build touched (O(distinct symbols)).
void hist_reset(CharHist& hist) noexcept;

// ---------------------------------------------------------------------------
// Shannon entropy
//
// entropy_from_hist walks the presence bitmap in ascending byte order and
// computes
//   H = log2(n) - (sum_c count_c * log2(count_c)) / n
// with the count-indexed k*log2(k) lookup table (counts above the table
// fall back to direct log2).  One-symbol strings return exactly 0 and the
// result is clamped at 0 so rounding can never produce a negative
// entropy.

/// Entropy (bits/char) from a built histogram; `total` is the string
/// length the histogram was built from.
double entropy_from_hist(const CharHist& hist, std::uint64_t total) noexcept;

/// One-shot entropy of `s`.
double shannon_entropy(std::string_view s) noexcept;

/// Batched entropy: out[i] = entropy of strings[i].  One workspace is
/// reused across the whole batch, so per-string setup cost vanishes;
/// views into an interned arena (NameTable, DomainNameTree labels) are
/// walked in storage order.  Requires out.size() >= strings.size().
void entropy_many(std::span<const std::string_view> strings,
                  std::span<double> out) noexcept;

// ---------------------------------------------------------------------------
// Domain-name normalization scan
//
// The replacement for DomainName's per-character parse loop: classifies
// bytes (allowed LDH+underscore set, dots, uppercase), lowercases into
// `out`, and emits label-start offsets while validating label lengths
// (1..63) exactly like the scalar parser.  The SSE2 build classifies 16
// bytes per step.

struct NameScan {
  bool ok = false;               // false: bad char, empty label, label > 63
  std::uint16_t label_count = 0; // offsets written when ok
};

/// Scans `in` (must be non-empty, <= 253 bytes, caller already stripped
/// any trailing dot), writing in.size() lowercased bytes to `out` and
/// label-start byte offsets to `offsets` (capacity >= 128).  On failure
/// the contents of out/offsets are unspecified.
NameScan normalize_name(std::string_view in, char* out,
                        std::uint16_t* offsets) noexcept;

}  // namespace dnsnoise::kernels
