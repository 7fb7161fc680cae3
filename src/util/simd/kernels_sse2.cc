// The SSE2 name dot-scan: 16-byte character classification, the x86-64
// build's normalize_name (kernels_internal.h decides; on every other
// target this file compiles to nothing).
//
// Everything computed here is integer (class masks, offsets), so the
// output is byte-identical to the scalar scan; the parity tests assert
// exactly that.
#include "util/simd/kernels_internal.h"

#if defined(DNSNOISE_KERNELS_SSE2)

#include <emmintrin.h>

#include <algorithm>
#include <cstring>

namespace dnsnoise::kernels::detail {

NameScan normalize_name_sse2(std::string_view in, char* out,
                             std::uint16_t* offsets) noexcept {
  const std::size_t n = in.size();
  offsets[0] = 0;
  ScanState st;
  const __m128i low_bit = _mm_set1_epi8(0x20);
  const __m128i ch_a = _mm_set1_epi8('a');
  const __m128i ch_z = _mm_set1_epi8('z');
  const __m128i ch_0 = _mm_set1_epi8('0');
  const __m128i ch_9 = _mm_set1_epi8('9');
  const __m128i ch_dash = _mm_set1_epi8('-');
  const __m128i ch_under = _mm_set1_epi8('_');
  const __m128i ch_dot = _mm_set1_epi8('.');
  for (std::size_t i = 0; i < n; i += 16) {
    const std::size_t take = std::min<std::size_t>(16, n - i);
    alignas(16) char buf[16];
    __m128i v;
    if (take == 16) {
      v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in.data() + i));
    } else {
      std::memset(buf, 'a', sizeof(buf));  // pad lanes classify as benign
      std::memcpy(buf, in.data() + i, take);
      v = _mm_load_si128(reinterpret_cast<const __m128i*>(buf));
    }
    // Letters via the OR-0x20 fold, digits via unsigned range compares.
    const __m128i folded = _mm_or_si128(v, low_bit);
    const __m128i alpha =
        _mm_and_si128(_mm_cmpeq_epi8(_mm_max_epu8(folded, ch_a), folded),
                      _mm_cmpeq_epi8(_mm_min_epu8(folded, ch_z), folded));
    const __m128i digit =
        _mm_and_si128(_mm_cmpeq_epi8(_mm_max_epu8(v, ch_0), v),
                      _mm_cmpeq_epi8(_mm_min_epu8(v, ch_9), v));
    const __m128i punct = _mm_or_si128(_mm_cmpeq_epi8(v, ch_dash),
                                       _mm_cmpeq_epi8(v, ch_under));
    const __m128i dot = _mm_cmpeq_epi8(v, ch_dot);
    const __m128i good =
        _mm_or_si128(_mm_or_si128(alpha, digit), _mm_or_si128(punct, dot));
    const std::uint32_t valid = take == 16 ? 0xffffu : ((1u << take) - 1);
    const auto good_mask =
        static_cast<std::uint32_t>(_mm_movemask_epi8(good));
    if ((good_mask & valid) != valid) return {false, 0};
    // Lowercase by setting bit 5 on letter lanes only.
    const __m128i lowered =
        _mm_or_si128(v, _mm_and_si128(alpha, low_bit));
    if (take == 16) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), lowered);
    } else {
      _mm_store_si128(reinterpret_cast<__m128i*>(buf), lowered);
      std::memcpy(out + i, buf, take);
    }
    const std::uint32_t dots =
        static_cast<std::uint32_t>(_mm_movemask_epi8(dot)) & valid;
    if (!consume_dots(dots, i, offsets, st)) return {false, 0};
  }
  return finish_scan(n, st);
}

}  // namespace dnsnoise::kernels::detail

#endif  // DNSNOISE_KERNELS_SSE2
