// AVX-512 fake-quantize loop: eight elements per iteration, one double lane
// each, bit-identical to detail::fake_quantize_scalar.
//
// Every lane repeats the scalar arithmetic exactly — double(x) · (1/scale),
// the bits >> shift bucket key clamped to [0, key_top], the one boundary
// compare, the tie-table select, the integer sign restore, the ±0/NaN
// select of the zero value and float(q · scale) — with gathers in place of
// the table loads: the bucket's bound word, then the candidate value (and,
// only when a lane sits exactly on a midpoint, its tie winner).  Every
// gather index is in range for every input (see LutView), so none needs a
// mask.  Compiled with -mavx512f only; active_fake_quant_variant() runs it
// only where the host has AVX-512F.
#include <immintrin.h>

#include "formats/kernels/quant_kernel.h"

// GCC 12 flags the deliberately undefined pass-through operand inside the
// unmasked AVX-512 intrinsics (`__m512d __Y = __Y;` in avx512fintrin.h) as
// maybe-uninitialized once they inline; the operand is never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace mersit::formats::kernels::detail {

void fake_quantize_avx512(const LutView& t, float* data, std::size_t n,
                          double scale) {
  const double inv = 1.0 / scale;
  const __m512d vinv = _mm512_set1_pd(inv);
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vzero_value = _mm512_set1_pd(t.zero_value);
  const __m512i abs_mask = _mm512_set1_epi64(0x7fffffffffffffffLL);
  const __m512i sign_mask =
      _mm512_set1_epi64(static_cast<long long>(1ull << 63));
  const __m512i key_base =
      _mm512_set1_epi64(static_cast<long long>(t.key_base));
  const __m512i key_top = _mm512_set1_epi64(static_cast<long long>(t.key_top));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i index_mask =
      _mm512_set1_epi64(static_cast<long long>(kBoundIndexMask));
  const __m128i shift = _mm_cvtsi64_si128(static_cast<long long>(t.shift));
  const auto* tie = reinterpret_cast<const int*>(t.tie);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x =
        _mm512_mul_pd(_mm512_cvtps_pd(_mm256_loadu_ps(data + i)), vinv);
    const __m512i xbits = _mm512_castpd_si512(x);
    const __m512i mag_bits = _mm512_and_si512(xbits, abs_mask);
    const __m512d mag = _mm512_castsi512_pd(mag_bits);

    __m512i key = _mm512_srl_epi64(mag_bits, shift);
    key = _mm512_sub_epi64(_mm512_max_epu64(key, key_base), key_base);
    key = _mm512_min_epu64(key, key_top);
    const __m512i word = _mm512_i64gather_epi64(key, t.bound, 8);
    const __m512i j = _mm512_and_si512(word, index_mask);
    const __m512d m =
        _mm512_castsi512_pd(_mm512_andnot_si512(index_mask, word));
    const __mmask8 ge = _mm512_cmp_pd_mask(mag, m, _CMP_GE_OQ);
    __m512i pick = _mm512_mask_add_epi64(j, ge, j, one);
    const __mmask8 tie_lanes = _mm512_cmp_pd_mask(mag, m, _CMP_EQ_OQ);
    if (tie_lanes != 0) {  // exact midpoints: rare in real data
      const __m512i winner =
          _mm512_cvtepu32_epi64(_mm512_i64gather_epi32(j, tie, 4));
      pick = _mm512_mask_blend_epi64(tie_lanes, pick, winner);
    }
    const __m512i qb =
        _mm512_castpd_si512(_mm512_i64gather_pd(pick, t.cand_value, 8));

    // Nonzero values take x's sign; zero values keep their own.  ±0 and NaN
    // (mag > 0 false) select the zero value.
    const __mmask8 nonzero = _mm512_test_epi64_mask(qb, abs_mask);
    const __m512i signed_q = _mm512_mask_xor_epi64(
        qb, nonzero, qb, _mm512_and_si512(xbits, sign_mask));
    const __mmask8 positive =
        _mm512_cmp_pd_mask(mag, _mm512_setzero_pd(), _CMP_GT_OQ);
    const __m512d q = _mm512_mask_blend_pd(positive, vzero_value,
                                           _mm512_castsi512_pd(signed_q));
    _mm256_storeu_ps(data + i, _mm512_cvtpd_ps(_mm512_mul_pd(q, vscale)));
  }
  if (i < n) fake_quantize_scalar(t, data + i, n - i, scale);
}

}  // namespace mersit::formats::kernels::detail
