// Tests for dnsnoise::kernels (DESIGN.md §15).
//
// Histograms and entropy have one (scalar) kernel: they are checked for
// exact counts, exact edge values and agreement with the textbook
// -sum p log2 p formula.  The name scan has two: the scalar reference and,
// on x86-64, the SSE2 kernel normalize_name runs.  Both must produce
// byte-identical output over every length 1..253, malformed names, the
// 63/64-byte label ceiling and a seeded fuzz loop.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name_table.h"
#include "util/entropy.h"
#include "util/simd/kernels.h"
#include "util/simd/kernels_internal.h"

namespace dnsnoise::kernels {
namespace {

/// Reference entropy: the formula the repo used before the LUT rewrite,
/// H = -sum_c p_c log2 p_c.  The LUT path must agree to 1e-12.
double reference_entropy(std::string_view s) {
  if (s.size() <= 1) return 0.0;
  std::size_t counts[256] = {};
  for (const unsigned char c : s) ++counts[c];
  const double n = static_cast<double>(s.size());
  double h = 0.0;
  for (const std::size_t count : counts) {
    if (count == 0) continue;
    const double p = static_cast<double>(count) / n;
    h -= p * std::log2(p);
  }
  return h;
}

TEST(SimdKernelsTest, HistogramCountsAreExact) {
  CharHist hist;
  hist_init(hist);
  hist_build(hist, "abracadabra");
  EXPECT_EQ(5u, hist.counts['a']);
  EXPECT_EQ(2u, hist.counts['b']);
  EXPECT_EQ(2u, hist.counts['r']);
  EXPECT_EQ(1u, hist.counts['c']);
  EXPECT_EQ(1u, hist.counts['d']);
  EXPECT_EQ(0u, hist.counts['e']);
  hist_reset(hist);
  for (int c = 0; c < 256; ++c) EXPECT_EQ(0u, hist.counts[c]) << c;
  for (int w = 0; w < 4; ++w) EXPECT_EQ(0u, hist.present[w]) << w;
}

TEST(SimdKernelsTest, LutEntropyMatchesReferenceFormula) {
  // The LUT path computes H = log2(n) - sum(k log2 k)/n; the pre-rewrite
  // code computed -sum(p log2 p).  Algebraically equal; numerically they
  // must agree to 1e-12 on every realistic input.
  std::mt19937 rng(0xfeedu);
  std::uniform_int_distribution<int> len_dist(2, 255);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int iter = 0; iter < 500; ++iter) {
    std::string s;
    const int len = len_dist(rng);
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(byte_dist(rng) % (iter % 2 ? 256 : 8)));
    }
    EXPECT_NEAR(reference_entropy(s), shannon_entropy(s), 1e-12) << s;
  }
  EXPECT_NEAR(reference_entropy("abracadabra"), shannon_entropy("abracadabra"),
              1e-12);
  EXPECT_NEAR(2.0, shannon_entropy("abcd"), 1e-12);
  // Exact edge values: one repeated symbol (NUL included) is exactly 0.0
  // and the full byte alphabet exactly 8.0.
  for (std::size_t len = 1; len <= 70; ++len) {
    EXPECT_EQ(0.0, shannon_entropy(std::string(len, 'x'))) << len;
  }
  EXPECT_EQ(0.0, shannon_entropy(std::string(64, '\0')));
  std::string all;
  for (int c = 0; c < 256; ++c) all.push_back(static_cast<char>(c));
  EXPECT_EQ(8.0, shannon_entropy(all));
}

TEST(SimdKernelsTest, EntropyNeverNegative) {
  std::mt19937 rng(7u);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int len = 0; len <= 128; ++len) {
    std::string s;
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(byte_dist(rng) % 3));
    }
    EXPECT_GE(shannon_entropy(s), 0.0);
  }
}

TEST(SimdKernelsTest, UtilShannonEntropyRoutesThroughKernels) {
  // util/entropy.h's scalar entry point and the kernel layer are the same
  // code path now; they must agree bitwise.
  const std::string_view cases[] = {"", "a", "abracadabra", "x9f2-k_q",
                                    "aaaaaaaaaaaaaaaaaaaaaaaaaa"};
  for (const std::string_view s : cases) {
    EXPECT_EQ(kernels::shannon_entropy(s), dnsnoise::shannon_entropy(s));
  }
}

TEST(SimdKernelsTest, EntropyManyMatchesPerString) {
  std::vector<std::string> storage = {
      "", "a", "abracadabra", "mail", "x7f2-dk01", "cdn-edge-fra-07",
      "zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz"};
  std::vector<std::string_view> views(storage.begin(), storage.end());
  std::vector<double> out(views.size(), -1.0);
  entropy_many(views, out);
  for (std::size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(shannon_entropy(views[i]), out[i]) << storage[i];
  }
}

TEST(SimdKernelsTest, NameTableEntropyManyWalksInternedNames) {
  NameTable table;
  std::vector<NameId> ids;
  std::vector<std::string> names = {"mail.example.com", "x7f2.d.example.net",
                                    "a.b", "singleton"};
  for (const std::string& n : names) ids.push_back(table.intern(n));
  std::vector<double> out(ids.size(), -1.0);
  dnsnoise::entropy_many(ids, table, out);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(shannon_entropy(names[i]), out[i]) << names[i];
  }
}

// ---------------------------------------------------------------------------
// normalize_name parity + semantics

using ScanFn = NameScan (*)(std::string_view, char*, std::uint16_t*) noexcept;

struct ScanKernel {
  const char* name;
  ScanFn scan;
};

/// Every scan this build compiles: the scalar reference first.
constexpr ScanKernel kScanKernels[] = {
    {"scalar", &detail::normalize_name_scalar},
#if defined(DNSNOISE_KERNELS_SSE2)
    {"sse2", &detail::normalize_name_sse2},
#endif
};

struct ScanResult {
  NameScan scan;
  std::string out;
  std::vector<std::uint16_t> offsets;
};

ScanResult scan_with(const ScanKernel& kernel, std::string_view in) {
  ScanResult r;
  char out[256] = {};
  std::uint16_t offsets[130] = {};
  r.scan = kernel.scan(in, out, offsets);
  if (r.scan.ok) {
    r.out.assign(out, in.size());
    r.offsets.assign(offsets, offsets + r.scan.label_count);
  }
  return r;
}

void expect_scan_parity(std::string_view in) {
  const ScanResult scalar = scan_with(kScanKernels[0], in);
  for (const ScanKernel& kernel : kScanKernels) {
    const ScanResult r = scan_with(kernel, in);
    EXPECT_EQ(scalar.scan.ok, r.scan.ok) << kernel.name << " in=" << in;
    if (!scalar.scan.ok || !r.scan.ok) continue;
    EXPECT_EQ(scalar.scan.label_count, r.scan.label_count)
        << kernel.name << " in=" << in;
    EXPECT_EQ(scalar.out, r.out) << kernel.name << " in=" << in;
    EXPECT_EQ(scalar.offsets, r.offsets) << kernel.name << " in=" << in;
  }
}

TEST(SimdKernelsTest, BuildSelectsTheScanKernel) {
  // Checked against the platform macros, not DNSNOISE_KERNELS_SSE2: if
  // this TU and the library disagreed on the choice, the parity tests
  // below would compare the scalar scan with itself.
#if defined(__x86_64__) && !defined(DNSNOISE_DISABLE_SIMD)
  EXPECT_STREQ("sse2", scan_kernel());
  EXPECT_EQ(2u, std::size(kScanKernels));
#else
  EXPECT_STREQ("scalar", scan_kernel());
  EXPECT_EQ(1u, std::size(kScanKernels));
#endif
}

TEST(SimdKernelsTest, NormalizeLowercasesAndIndexesLabels) {
  for (const ScanKernel& kernel : kScanKernels) {
    const ScanResult r = scan_with(kernel, "WWW.Example.COM");
    ASSERT_TRUE(r.scan.ok) << kernel.name;
    EXPECT_EQ("www.example.com", r.out) << kernel.name;
    EXPECT_EQ((std::vector<std::uint16_t>{0, 4, 12}), r.offsets)
        << kernel.name;
  }
}

TEST(SimdKernelsTest, NormalizeAcceptsLdhUnderscore) {
  for (const ScanKernel& kernel : kScanKernels) {
    EXPECT_TRUE(scan_with(kernel, "_dmarc.mail-01.example9.com").scan.ok)
        << kernel.name;
  }
}

TEST(SimdKernelsTest, NormalizeRejectsMalformedNames) {
  const std::string_view bad[] = {
      "exa mple.com",        // space
      "exam!ple.com",        // punctuation outside LDH+underscore
      "a..b",                // empty middle label
      ".leading.dot",        // empty first label
      std::string_view("a\0b", 3),  // embedded NUL
      "caf\xc3\xa9.com",     // non-ASCII bytes
  };
  for (const std::string_view in : bad) {
    for (const ScanKernel& kernel : kScanKernels) {
      EXPECT_FALSE(scan_with(kernel, in).scan.ok)
          << kernel.name << " in=" << in;
    }
  }
  // 63-byte label is the RFC ceiling; 64 is malformed.
  const std::string label63(63, 'a');
  const std::string label64(64, 'a');
  for (const ScanKernel& kernel : kScanKernels) {
    EXPECT_TRUE(scan_with(kernel, label63 + ".com").scan.ok) << kernel.name;
    EXPECT_FALSE(scan_with(kernel, label64 + ".com").scan.ok)
        << kernel.name;
  }
}

TEST(SimdKernelsTest, NormalizeParityAcrossLengths) {
  // Valid hostname characters across every chunk boundary up to the
  // 253-byte ceiling, with a dot sprinkled every 9 bytes.
  std::string s;
  for (std::size_t len = 1; len <= 253; ++len) {
    s.clear();
    for (std::size_t i = 0; i < len; ++i) {
      if (i % 9 == 8 && i + 1 < len) {
        s.push_back('.');
      } else {
        s.push_back(static_cast<char>((i % 2 ? 'A' : 'a') + (i * 5) % 26));
      }
    }
    expect_scan_parity(s);
  }
}

TEST(SimdKernelsTest, SeededFuzzNormalizeParity) {
  std::mt19937 rng(0xbadd06u);
  std::uniform_int_distribution<int> len_dist(1, 253);
  std::uniform_int_distribution<int> mode_dist(0, 2);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  const std::string_view good =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.";
  std::string s;
  for (int iter = 0; iter < 2000; ++iter) {
    const int len = len_dist(rng);
    const int mode = mode_dist(rng);
    s.clear();
    for (int i = 0; i < len; ++i) {
      const int c = byte_dist(rng);
      // Mode 0: mostly-valid names (reject path depends on label layout);
      // mode 1: raw bytes (reject path depends on classification);
      // mode 2: valid chars with dot clusters (empty-label detection).
      if (mode == 0 || (mode == 2 && c % 5 != 0)) {
        s.push_back(good[c % good.size()]);
      } else if (mode == 2) {
        s.push_back('.');
      } else {
        s.push_back(static_cast<char>(c));
      }
    }
    expect_scan_parity(s);
  }
}

}  // namespace
}  // namespace dnsnoise::kernels
