// Internal plumbing shared by the scalar name scan (kernels.cc) and the
// SSE2 one (kernels_sse2.cc): the build-time kernel choice and the
// label-offset walk over dot bitmasks.  Everything here is integer
// bookkeeping, which is what makes the two scans byte-identical (see the
// determinism contract in kernels.h).  tests/simd_kernels_test.cpp
// includes this header to run both scans side by side.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "util/simd/kernels.h"

// x86-64's ABI guarantees SSE2, so the SSE2 scan needs no ISA flag and no
// CPU check.  DNSNOISE_DISABLE_SIMD is a public definition of
// dnsnoise_util, so every TU that includes this header agrees on the
// choice.
#if defined(__x86_64__) && !defined(DNSNOISE_DISABLE_SIMD)
#define DNSNOISE_KERNELS_SSE2 1
#endif

namespace dnsnoise::kernels::detail {

struct ScanState {
  std::size_t label_start = 0;
  std::uint32_t label_count = 1;  // offsets[0] = 0 is written by the caller
};

/// Emits one label-start offset per set bit of `dots` (bit b = a dot at
/// byte base + b), validating that every finished label is 1..63 bytes.
/// Returns false on an empty or oversized label.
inline bool consume_dots(std::uint32_t dots, std::size_t base,
                         std::uint16_t* offsets, ScanState& st) noexcept {
  while (dots != 0) {
    const auto bit = static_cast<unsigned>(std::countr_zero(dots));
    dots &= dots - 1;
    const std::size_t pos = base + bit;
    const std::size_t len = pos - st.label_start;
    if (len == 0 || len > 63) return false;
    st.label_start = pos + 1;
    offsets[st.label_count++] = static_cast<std::uint16_t>(pos + 1);
  }
  return true;
}

/// Validates the final label of an `n`-byte name and closes the scan.
inline NameScan finish_scan(std::size_t n, const ScanState& st) noexcept {
  const std::size_t len = n - st.label_start;
  if (len == 0 || len > 63) return {false, 0};
  return {true, static_cast<std::uint16_t>(st.label_count)};
}

/// The portable scan: every target without SSE2, and the reference the
/// parity tests hold the SSE2 scan to.
NameScan normalize_name_scalar(std::string_view in, char* out,
                               std::uint16_t* offsets) noexcept;

#if defined(DNSNOISE_KERNELS_SSE2)
NameScan normalize_name_sse2(std::string_view in, char* out,
                             std::uint16_t* offsets) noexcept;
#endif

}  // namespace dnsnoise::kernels::detail
