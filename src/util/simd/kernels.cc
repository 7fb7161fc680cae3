#include "util/simd/kernels.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/simd/kernels_internal.h"

namespace dnsnoise::kernels {

namespace {

// Character classes of the scalar scan: the LDH+underscore superset
// DomainName accepts, plus the dot.
constexpr std::uint8_t kClassAllowed = 1;  // alnum, '-', '_'
constexpr std::uint8_t kClassDot = 2;

constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned char c = '0'; c <= '9'; ++c) t[c] = kClassAllowed;
  for (unsigned char c = 'a'; c <= 'z'; ++c) t[c] = kClassAllowed;
  for (unsigned char c = 'A'; c <= 'Z'; ++c) t[c] = kClassAllowed;
  t[static_cast<unsigned char>('-')] = kClassAllowed;
  t[static_cast<unsigned char>('_')] = kClassAllowed;
  t[static_cast<unsigned char>('.')] = kClassDot;
  return t;
}();

constexpr std::array<char, 256> kLowerTable = [] {
  std::array<char, 256> t{};
  for (std::size_t c = 0; c < t.size(); ++c) t[c] = static_cast<char>(c);
  for (unsigned char c = 'A'; c <= 'Z'; ++c) {
    t[c] = static_cast<char>(c + 32);
  }
  return t;
}();

/// Count-indexed k*log2(k) and log2(k) lookups.  Counts and lengths above
/// 255 (longer than any DNS name) fall back to direct std::log2.
struct EntropyTables {
  double xlogx[256];
  double log2n[256];
};

const EntropyTables& entropy_tables() noexcept {
  static const EntropyTables tables = [] {
    EntropyTables t{};
    t.xlogx[0] = 0.0;
    t.log2n[0] = 0.0;
    for (int k = 1; k < 256; ++k) {
      const double lg = std::log2(static_cast<double>(k));
      t.log2n[k] = lg;
      t.xlogx[k] = static_cast<double>(k) * lg;
    }
    return t;
  }();
  return tables;
}

/// Per-thread histogram workspace for the one-shot and batched entropy
/// entry points.  Zero-initialized (== hist_init) and returned to the
/// clean state by hist_reset after every use.
CharHist& scratch_hist() noexcept {
  thread_local CharHist hist{};
  return hist;
}

}  // namespace

const char* scan_kernel() noexcept {
#if defined(DNSNOISE_KERNELS_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

void hist_init(CharHist& hist) noexcept {
  std::memset(&hist, 0, sizeof(hist));
}

void hist_build(CharHist& hist, std::string_view s) noexcept {
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    ++hist.counts[c];
    hist.present[c >> 6] |= std::uint64_t{1} << (c & 63);
  }
}

void hist_reset(CharHist& hist) noexcept {
  for (int w = 0; w < 4; ++w) {
    std::uint64_t bits = hist.present[w];
    while (bits != 0) {
      const int k = std::countr_zero(bits);
      bits &= bits - 1;
      hist.counts[w * 64 + k] = 0;
    }
    hist.present[w] = 0;
  }
}

double entropy_from_hist(const CharHist& hist, std::uint64_t total) noexcept {
  if (total == 0) return 0.0;
  const EntropyTables& t = entropy_tables();
  double sum = 0.0;
  std::uint32_t distinct = 0;
  for (int w = 0; w < 4; ++w) {
    std::uint64_t bits = hist.present[w];
    while (bits != 0) {
      const int k = std::countr_zero(bits);
      bits &= bits - 1;
      const std::uint32_t count = hist.counts[w * 64 + k];
      sum += count < 256
                 ? t.xlogx[count]
                 : static_cast<double>(count) *
                       std::log2(static_cast<double>(count));
      ++distinct;
    }
  }
  // A single repeated symbol has exactly zero entropy; computing it via
  // log2(n) - n*log2(n)/n could round to a tiny nonzero residual.
  if (distinct <= 1) return 0.0;
  const double log2_total = total < 256
                                ? t.log2n[total]
                                : std::log2(static_cast<double>(total));
  const double h = log2_total - sum / static_cast<double>(total);
  return h > 0.0 ? h : 0.0;
}

double shannon_entropy(std::string_view s) noexcept {
  CharHist& hist = scratch_hist();
  hist_build(hist, s);
  const double h = entropy_from_hist(hist, s.size());
  hist_reset(hist);
  return h;
}

void entropy_many(std::span<const std::string_view> strings,
                  std::span<double> out) noexcept {
  CharHist& hist = scratch_hist();
  for (std::size_t i = 0; i < strings.size(); ++i) {
    hist_build(hist, strings[i]);
    out[i] = entropy_from_hist(hist, strings[i].size());
    hist_reset(hist);
  }
}

NameScan normalize_name(std::string_view in, char* out,
                        std::uint16_t* offsets) noexcept {
#if defined(DNSNOISE_KERNELS_SSE2)
  return detail::normalize_name_sse2(in, out, offsets);
#else
  return detail::normalize_name_scalar(in, out, offsets);
#endif
}

namespace detail {

NameScan normalize_name_scalar(std::string_view in, char* out,
                               std::uint16_t* offsets) noexcept {
  offsets[0] = 0;
  ScanState st;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto c = static_cast<unsigned char>(in[i]);
    if (kCharClass[c] == kClassDot) {
      const std::size_t len = i - st.label_start;
      if (len == 0 || len > 63) return {false, 0};
      out[i] = '.';
      st.label_start = i + 1;
      offsets[st.label_count++] = static_cast<std::uint16_t>(i + 1);
      continue;
    }
    if ((kCharClass[c] & kClassAllowed) == 0) return {false, 0};
    out[i] = kLowerTable[c];
  }
  return finish_scan(in.size(), st);
}

}  // namespace detail

}  // namespace dnsnoise::kernels
