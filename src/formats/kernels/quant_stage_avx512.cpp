// AVX-512 stage loop: sixteen floats per iteration, bit-identical to
// detail::quant_stage_scalar (stage_pick), with both tables in registers.
//
// Search level L reads the 2^L thresholds at tree[2^L, 2^(L+1)), indexed by
// the node i itself: vpermps uses the low four bits of i, so levels 0-3
// share the register holding tree[0..15] and level 4 reads tree[16..31];
// vpermt2ps uses the low five bits, so level 5 is one two-register permute
// and level 6 two of them joined on bit 5 of i.  After the seventh level
// i - 128 is the output slot: four two-register permutes joined on bits 5
// and 6.  No gather and no double conversion; the tail is one masked
// iteration.  Compiled with -mavx512f only; active_quant_stage_variant()
// runs it only where the host has AVX-512F.
#include <immintrin.h>

#include "formats/kernels/quant_stage.h"

// GCC 12 flags the deliberately undefined pass-through operand inside the
// unmasked AVX-512 intrinsics as maybe-uninitialized once they inline (as
// in quant_kernel_avx512.cpp); the operand is never read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace mersit::formats::kernels::detail {

namespace {

struct Regs {
  __m512 top, l4, l5a, l5b, l6a, l6b, l6c, l6d;
  __m512 o0, o1, o2, o3, o4, o5, o6, o7;
};

inline __m512 pick16(const Regs& r, __m512 x) {
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i bit5 = _mm512_set1_epi32(32);
  const __m512i bit6 = _mm512_set1_epi32(64);
  const __m512i xbits = _mm512_castps_si512(x);
  const __m512 a = _mm512_castsi512_ps(
      _mm512_and_si512(xbits, _mm512_set1_epi32(0x7fffffff)));
  // i = 2i + (a >= threshold); a NaN threshold or a NaN `a` adds nothing.
  const auto step = [&](__m512i i, __m512 t) {
    const __mmask16 ge = _mm512_cmp_ps_mask(a, t, _CMP_GE_OQ);
    const __m512i twice = _mm512_add_epi32(i, i);
    return _mm512_mask_add_epi32(twice, ge, twice, one);
  };
  __m512i i = one;
  for (int l = 0; l < 4; ++l) i = step(i, _mm512_permutexvar_ps(i, r.top));
  i = step(i, _mm512_permutexvar_ps(i, r.l4));
  i = step(i, _mm512_permutex2var_ps(r.l5a, i, r.l5b));
  const __mmask16 hi6 = _mm512_test_epi32_mask(i, bit5);
  i = step(i, _mm512_mask_blend_ps(hi6,
                                   _mm512_permutex2var_ps(r.l6a, i, r.l6b),
                                   _mm512_permutex2var_ps(r.l6c, i, r.l6d)));
  // i in [128, 256): the low seven bits are the output slot.
  const __mmask16 b5 = _mm512_test_epi32_mask(i, bit5);
  const __m512 lo = _mm512_mask_blend_ps(b5,
                                         _mm512_permutex2var_ps(r.o0, i, r.o1),
                                         _mm512_permutex2var_ps(r.o2, i, r.o3));
  const __m512 hi = _mm512_mask_blend_ps(b5,
                                         _mm512_permutex2var_ps(r.o4, i, r.o5),
                                         _mm512_permutex2var_ps(r.o6, i, r.o7));
  const __m512i y = _mm512_castps_si512(
      _mm512_mask_blend_ps(_mm512_test_epi32_mask(i, bit6), lo, hi));
  // Slots past 0 take x's sign; slot 0 keeps the zero code's own.
  const __mmask16 nonzero =
      _mm512_cmpneq_epi32_mask(i, _mm512_set1_epi32(128));
  return _mm512_castsi512_ps(_mm512_mask_or_epi32(
      y, nonzero, y,
      _mm512_and_si512(xbits, _mm512_set1_epi32(
                                  static_cast<int>(0x80000000u)))));
}

}  // namespace

void quant_stage_avx512(const StageTables& s, float* data, std::size_t n) {
  const Regs r{_mm512_load_ps(s.tree),      _mm512_load_ps(s.tree + 16),
               _mm512_load_ps(s.tree + 32), _mm512_load_ps(s.tree + 48),
               _mm512_load_ps(s.tree + 64), _mm512_load_ps(s.tree + 80),
               _mm512_load_ps(s.tree + 96), _mm512_load_ps(s.tree + 112),
               _mm512_load_ps(s.out),       _mm512_load_ps(s.out + 16),
               _mm512_load_ps(s.out + 32),  _mm512_load_ps(s.out + 48),
               _mm512_load_ps(s.out + 64),  _mm512_load_ps(s.out + 80),
               _mm512_load_ps(s.out + 96),  _mm512_load_ps(s.out + 112)};
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16)
    _mm512_storeu_ps(data + i, pick16(r, _mm512_loadu_ps(data + i)));
  if (i < n) {
    const __mmask16 m = static_cast<__mmask16>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_ps(data + i, m,
                          pick16(r, _mm512_maskz_loadu_ps(m, data + i)));
  }
}

}  // namespace mersit::formats::kernels::detail
