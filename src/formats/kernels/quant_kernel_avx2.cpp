// AVX2 fake-quantize loop: four elements per iteration, one double lane
// each, bit-identical to detail::fake_quantize_scalar — the same lane
// program as the AVX-512 loop (quant_kernel_avx512.cpp: bound-word gather,
// one compare, rare tie fix-up, candidate gather), with all-ones lane masks
// in place of mask registers.  AVX2 has no unsigned 64-bit
// min/max, but the key is formed from a magnitude (sign bit clear), so the
// signed compares order it correctly.  Compiled with -mavx2 only;
// active_fake_quant_variant() runs it only where the host has AVX2.
#include <immintrin.h>

#include "formats/kernels/quant_kernel.h"

namespace mersit::formats::kernels::detail {

void fake_quantize_avx2(const LutView& t, float* data, std::size_t n,
                        double scale) {
  const double inv = 1.0 / scale;
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vzero_value = _mm256_set1_pd(t.zero_value);
  const __m256i abs_mask = _mm256_set1_epi64x(0x7fffffffffffffffLL);
  const __m256i sign_mask =
      _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
  const __m256i key_base =
      _mm256_set1_epi64x(static_cast<long long>(t.key_base));
  const __m256i key_top = _mm256_set1_epi64x(static_cast<long long>(t.key_top));
  const __m256i zero = _mm256_setzero_si256();
  const __m256i index_mask =
      _mm256_set1_epi64x(static_cast<long long>(kBoundIndexMask));
  const __m128i shift = _mm_cvtsi64_si128(static_cast<long long>(t.shift));
  const auto* tie = reinterpret_cast<const int*>(t.tie);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x =
        _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(data + i)), vinv);
    const __m256i xbits = _mm256_castpd_si256(x);
    const __m256i mag_bits = _mm256_and_si256(xbits, abs_mask);
    const __m256d mag = _mm256_castsi256_pd(mag_bits);

    // key - key_base, negatives zeroed, then capped at key_top.
    __m256i key = _mm256_sub_epi64(_mm256_srl_epi64(mag_bits, shift), key_base);
    key = _mm256_andnot_si256(_mm256_cmpgt_epi64(zero, key), key);
    key = _mm256_blendv_epi8(key, key_top, _mm256_cmpgt_epi64(key, key_top));
    const __m256i word = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(t.bound), key, 8);
    const __m256i j = _mm256_and_si256(word, index_mask);
    const __m256d m =
        _mm256_castsi256_pd(_mm256_andnot_si256(index_mask, word));
    // Compare masks are all-ones (-1) lanes, so subtracting one counts it.
    __m256i pick = _mm256_sub_epi64(
        j, _mm256_castpd_si256(_mm256_cmp_pd(mag, m, _CMP_GE_OQ)));
    const __m256d tie_lanes = _mm256_cmp_pd(mag, m, _CMP_EQ_OQ);
    if (_mm256_movemask_pd(tie_lanes) != 0) {  // exact midpoints: rare
      const __m256i winner =
          _mm256_cvtepu32_epi64(_mm256_i64gather_epi32(tie, j, 4));
      pick = _mm256_blendv_epi8(pick, winner, _mm256_castpd_si256(tie_lanes));
    }
    const __m256i qb =
        _mm256_castpd_si256(_mm256_i64gather_pd(t.cand_value, pick, 8));

    // Nonzero values take x's sign; zero values keep their own.  ±0 and NaN
    // (mag > 0 false) select the zero value.
    const __m256i is_zero =
        _mm256_cmpeq_epi64(_mm256_and_si256(qb, abs_mask), zero);
    const __m256i sign = _mm256_andnot_si256(
        is_zero, _mm256_and_si256(xbits, sign_mask));
    const __m256d signed_q = _mm256_castsi256_pd(_mm256_xor_si256(qb, sign));
    const __m256d positive =
        _mm256_cmp_pd(mag, _mm256_setzero_pd(), _CMP_GT_OQ);
    const __m256d q = _mm256_blendv_pd(vzero_value, signed_q, positive);
    _mm_storeu_ps(data + i, _mm256_cvtpd_ps(_mm256_mul_pd(q, vscale)));
  }
  if (i < n) fake_quantize_scalar(t, data + i, n - i, scale);
}

}  // namespace mersit::formats::kernels::detail
