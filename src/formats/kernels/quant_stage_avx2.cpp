// AVX2 stage loop: eight floats per iteration, bit-identical to
// detail::quant_stage_scalar (stage_pick).  Same lane program as the
// AVX-512 loop (quant_stage_avx512.cpp), with all-ones lane masks in place
// of mask registers.  vpermps indexes eight entries by the low three bits
// of the node i, so levels 0-2 read tree[0..7], level 3 tree[8..15], and
// levels 4 and 5 join two and four permutes on bits 3 and 4 of i.  Level 6
// (64 thresholds) and the 128-entry output lookup would take eight and
// sixteen permutes; they are one vgatherdps each instead.  Compiled with
// -mavx2 only; active_quant_stage_variant() runs it only where the host has
// AVX2.
#include <immintrin.h>

#include "formats/kernels/quant_stage.h"

namespace mersit::formats::kernels::detail {

void quant_stage_avx2(const StageTables& s, float* data, std::size_t n) {
  const __m256 t0 = _mm256_load_ps(s.tree);
  const __m256 t1 = _mm256_load_ps(s.tree + 8);
  const __m256 t2 = _mm256_load_ps(s.tree + 16);
  const __m256 t3 = _mm256_load_ps(s.tree + 24);
  const __m256 t4 = _mm256_load_ps(s.tree + 32);
  const __m256 t5 = _mm256_load_ps(s.tree + 40);
  const __m256 t6 = _mm256_load_ps(s.tree + 48);
  const __m256 t7 = _mm256_load_ps(s.tree + 56);
  const __m256i abs_mask = _mm256_set1_epi32(0x7fffffff);
  const __m256i sign_mask =
      _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i root = _mm256_set1_epi32(128);
  // Blend selector for bit b of i: blendv reads each lane's sign bit.
  const auto bit = [](__m256i i, int b) {
    return _mm256_castsi256_ps(_mm256_sll_epi32(i, _mm_cvtsi32_si128(31 - b)));
  };
  std::size_t at = 0;
  for (; at + 8 <= n; at += 8) {
    const __m256i xbits =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + at));
    const __m256 a = _mm256_castsi256_ps(_mm256_and_si256(xbits, abs_mask));
    // i = 2i + (a >= threshold): the compare is an all-ones (-1) lane.
    const auto step = [&a](__m256i i, __m256 t) {
      const __m256i ge = _mm256_castps_si256(_mm256_cmp_ps(a, t, _CMP_GE_OQ));
      return _mm256_sub_epi32(_mm256_add_epi32(i, i), ge);
    };
    __m256i i = _mm256_set1_epi32(1);
    for (int l = 0; l < 3; ++l) i = step(i, _mm256_permutevar8x32_ps(t0, i));
    i = step(i, _mm256_permutevar8x32_ps(t1, i));
    i = step(i, _mm256_blendv_ps(_mm256_permutevar8x32_ps(t2, i),
                                 _mm256_permutevar8x32_ps(t3, i), bit(i, 3)));
    const __m256 b3 = bit(i, 3);
    i = step(i, _mm256_blendv_ps(
                    _mm256_blendv_ps(_mm256_permutevar8x32_ps(t4, i),
                                     _mm256_permutevar8x32_ps(t5, i), b3),
                    _mm256_blendv_ps(_mm256_permutevar8x32_ps(t6, i),
                                     _mm256_permutevar8x32_ps(t7, i), b3),
                    bit(i, 4)));
    i = step(i, _mm256_i32gather_ps(s.tree, i, 4));
    const __m256i k = _mm256_sub_epi32(i, root);
    const __m256i y =
        _mm256_castps_si256(_mm256_i32gather_ps(s.out, k, 4));
    // Slots past 0 take x's sign; slot 0 keeps the zero code's own.
    const __m256i sign = _mm256_andnot_si256(
        _mm256_cmpeq_epi32(k, _mm256_setzero_si256()),
        _mm256_and_si256(xbits, sign_mask));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + at),
                        _mm256_or_si256(y, sign));
  }
  if (at < n) quant_stage_scalar(s, data + at, n - at);
}

}  // namespace mersit::formats::kernels::detail
