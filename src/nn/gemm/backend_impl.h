// Generic (plain C++) pack and micro-kernel templates shared by every
// backend translation unit.
//
// The templates are parameterized on the register tile (MR/NR) only — cache
// blocking stays in the driver (gemm.cpp).  Each backend TU instantiates
// them at its own tile geometry: the scalar backend uses them as its entire
// implementation, the SIMD backends use them for the pack routines (the
// compiler auto-vectorizes the copy/decode loops under the TU's -m flags —
// values are IEEE-identical at any vector width) and as the fallback for
// edge tiles their intrinsic kernels do not cover.
//
// Bit-identity rules baked in here, which every intrinsic kernel must also
// obey:
//  * ascending-k accumulation, one separately rounded multiply and add per
//    step (backend TUs compile with -ffp-contract=off so neither the
//    template loops nor adjacent mul/add intrinsics can fuse into FMA);
//  * the code-domain element decode is exactly
//    float(lut[code] * scale) — one double multiply, one float cast — the
//    same expression decode_codes evaluates;
//  * the per-row affine is v = scale[m]*v + shift[m] (two roundings), then
//    the epilogue, both through the TU's own elementwise_lanes<W> below;
//  * every elementwise formula (epilogues, the in-repo exp) is written once,
//    over a lane type that is plain float in the scalar reference and a GCC
//    vector of W floats in the SIMD TUs: the same IEEE operations in the
//    same order per lane, selects instead of branches, no libm call (GELU's
//    tanh aside, which runs lane by lane), so every width rounds alike.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "nn/gemm/backend.h"
#include "nn/gemm/qgemm.h"

namespace mersit::nn::gemm::detail {

/// Signature of Backend::quantize_levels.
using QuantizeLevelsFn = void (*)(const float* x, std::size_t n, double inv,
                                  int lo, int hi, std::int8_t* out);

/// The scalar level quantizer: the reference every backend's
/// quantize_levels matches byte for byte, and the tail loop of the SIMD
/// ones.  Defined out of line in the baseline-flags scalar TU, so no SIMD
/// TU's instruction set can leak into it.
void quantize_levels_scalar(const float* x, std::size_t n, double inv, int lo,
                            int hi, std::int8_t* out);

// --- Elementwise formulas ---------------------------------------------------

/// Lane types of the elementwise kernels: W floats and their uint32 bit
/// images.  W = 1 is plain scalar code (the reference); W > 1 are GCC vector
/// extensions, which compile to the TU's -m instruction set.
template <int W>
struct Lanes {
  typedef float F __attribute__((vector_size(4 * W)));
  typedef std::uint32_t U __attribute__((vector_size(4 * W)));
};
template <>
struct Lanes<1> {
  using F = float;
  using U = std::uint32_t;
};

#if defined(__AVX2__)
/// Lanes [0, len) of an AVX2 maskload/maskstore mask.
inline __m256i avx2_lane_mask(std::size_t len) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(len)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}
#endif

/// c in every lane (c - 0 is exact for every float, -0 included).
template <typename F>
inline F splat(float c) {
  return c - F{};
}

// Range of the in-repo exp: above kExpHi std::exp overflows to +inf; below
// kExpLo it rounds to +0.
inline constexpr float kExpHi = 88.72283172607421875f;
inline constexpr float kExpLo = -103.972076416015625f;

/// The in-repo float exp, branch-free: clamp to [kExpLo, kExpHi]; k =
/// RNE(x·log2 e) by the 1.5·2^23 magic-constant add (k is read back from the
/// sum's mantissa bits — no float→int conversion, so NaN and inf never meet
/// one); r = x − k·ln 2 by two-constant Cody-Waite reduction (k·kLn2Hi is
/// exact for |k| < 2^15); the Cephes expf polynomial on r; and 2^k applied
/// as two exponent-bit scales 2^⌊k/2⌋·2^(k−⌊k/2⌋), so results down to the
/// denormals round once.  Inputs past the clamp select +inf / +0, NaN stays
/// NaN.  Separate multiplies and adds only (the TUs compile with
/// -ffp-contract=off).  Within 1 ULP of glibc's expf over every float
/// (test_elementwise sweeps them all).
template <typename F, typename U>
inline F exp_lanes(F x) {
  constexpr float kLog2e = 1.44269502162933349609375f;
  constexpr float kMagic = 12582912.f;  // 1.5·2^23: RNE to an integer
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  const F hi = splat<F>(kExpHi);
  const F lo = splat<F>(kExpLo);
  F xc = x > hi ? hi : x;
  xc = xc < lo ? lo : xc;
  const F t = xc * kLog2e + kMagic;
  const F kf = t - kMagic;
  // t lies in [2^23, 2^24), where the mantissa counts integers: k is the
  // bit distance from the magic constant (mod 2^32; garbage only for NaN).
  const U k = std::bit_cast<U>(t) - std::bit_cast<std::uint32_t>(kMagic);
  F r = xc - kf * kLn2Hi;
  r = r - kf * kLn2Lo;
  F p = splat<F>(1.9875691500e-4f);
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  F y = p * (r * r);
  y = y + r;
  y = y + 1.f;
  // k1 = k >> 1 with sign extension, k2 = k - k1; both within [-75, 64],
  // so 2^k1 and 2^k2 are normal floats built straight from exponent bits.
  const U k1 = (k >> 1) | (k & 0x80000000u);
  const U k2 = k - k1;
  const F s1 = std::bit_cast<F>((k1 + 127u) << 23);
  const F s2 = std::bit_cast<F>((k2 + 127u) << 23);
  F e = (y * s1) * s2;
  e = x > hi ? splat<F>(HUGE_VALF) : e;
  e = x < lo ? F{} : e;
  return e;
}

/// 1 / (1 + exp(-x)) — the SE gate, Act::kSigmoid and the SiLU factor.
template <typename F, typename U>
inline F sigmoid_lanes(F x) {
  return 1.f / (1.f + exp_lanes<F, U>(-x));
}

/// The fusable activations, one definition each (epilogue_eval is the W = 1
/// instance).  ReLU, ReLU6 and HardSwish are selects; NaN takes the same
/// arm as the branchy forms did (ReLU → 0, ReLU6/HardSwish → NaN).
template <Epilogue E, typename F, typename U>
inline F epilogue_lanes(F x) {
  if constexpr (E == Epilogue::kReLU) {
    return x > F{} ? x : F{};
  } else if constexpr (E == Epilogue::kReLU6) {
    const F six = splat<F>(6.f);
    return x < F{} ? F{} : (x > six ? six : x);
  } else if constexpr (E == Epilogue::kSiLU) {
    return x * sigmoid_lanes<F, U>(x);
  } else if constexpr (E == Epilogue::kHardSwish) {
    const F three = splat<F>(3.f);
    const F mid = x * (x + 3.f) / 6.f;
    const F r = x >= three ? x : mid;
    return x <= -three ? F{} : r;
  } else if constexpr (E == Epilogue::kGELU) {
    static_assert(std::is_same_v<F, float>, "GELU runs lane by lane");
    const float u = 0.7978845608f * (x + 0.044715f * x * x * x);
    return 0.5f * x * (1.f + std::tanh(u));
  } else {
    return x;
  }
}

/// The first len (< W) floats at p as a lane vector, the other lanes 0 —
/// and the matching partial store.  The AVX-512 and AVX2 TUs use masked
/// loads/stores (short planes hit this tail on every call, and a
/// variable-length memcpy costs a library call); elsewhere memcpy.
template <int W, typename F>
inline F load_partial(const float* p, std::size_t len) {
#if defined(__AVX512F__)
  if constexpr (W == 16)
    return std::bit_cast<F>(
        _mm512_maskz_loadu_ps(static_cast<__mmask16>((1u << len) - 1u), p));
#endif
#if defined(__AVX2__)
  if constexpr (W == 8)
    return std::bit_cast<F>(_mm256_maskload_ps(p, avx2_lane_mask(len)));
#endif
  F v{};
  std::memcpy(&v, p, len * sizeof(float));
  return v;
}

template <int W, typename F>
inline void store_partial(float* p, F v, std::size_t len) {
#if defined(__AVX512F__)
  if constexpr (W == 16) {
    _mm512_mask_storeu_ps(p, static_cast<__mmask16>((1u << len) - 1u),
                          std::bit_cast<__m512>(v));
    return;
  }
#endif
#if defined(__AVX2__)
  if constexpr (W == 8) {
    _mm256_maskstore_ps(p, avx2_lane_mask(len), std::bit_cast<__m256>(v));
    return;
  }
#endif
  std::memcpy(p, &v, len * sizeof(float));
}

/// dst[i] = E(s·src[i] + t) (the affine only when A), W lanes at a time; the
/// tail runs as one partial vector.  Each block is loaded before it is
/// stored, so src == dst is safe.
template <int W, Epilogue E, bool A>
void elementwise_run(const float* src, float* dst, std::size_t n, float s,
                     float t) {
  constexpr int kW = E == Epilogue::kGELU ? 1 : W;  // tanh has no lanes
  using F = typename Lanes<kW>::F;
  using U = typename Lanes<kW>::U;
  const auto eval = [&](F v) {
    if constexpr (A) v = s * v + t;
    return epilogue_lanes<E, F, U>(v);
  };
  std::size_t i = 0;
  for (; i + kW <= n; i += kW) {
    F v;
    std::memcpy(&v, src + i, sizeof v);
    v = eval(v);
    std::memcpy(dst + i, &v, sizeof v);
  }
  if (i < n)
    store_partial<kW>(dst + i, eval(load_partial<kW, F>(src + i, n - i)),
                      n - i);
}

template <int W, bool A>
void elementwise_switch(Epilogue e, const float* src, float* dst,
                        std::size_t n, float s, float t) {
  switch (e) {
    case Epilogue::kNone:
      elementwise_run<W, Epilogue::kNone, A>(src, dst, n, s, t);
      return;
    case Epilogue::kReLU:
      elementwise_run<W, Epilogue::kReLU, A>(src, dst, n, s, t);
      return;
    case Epilogue::kReLU6:
      elementwise_run<W, Epilogue::kReLU6, A>(src, dst, n, s, t);
      return;
    case Epilogue::kSiLU:
      elementwise_run<W, Epilogue::kSiLU, A>(src, dst, n, s, t);
      return;
    case Epilogue::kHardSwish:
      elementwise_run<W, Epilogue::kHardSwish, A>(src, dst, n, s, t);
      return;
    case Epilogue::kGELU:
      elementwise_run<W, Epilogue::kGELU, A>(src, dst, n, s, t);
      return;
  }
}

/// Backend::elementwise at lane width W.  A null affine with kNone copies
/// (or is a no-op in place).
template <int W>
void elementwise_lanes(Epilogue e, const float* src, float* dst,
                       std::size_t n, const ScalarAffine* affine) {
  if (affine != nullptr)
    elementwise_switch<W, true>(e, src, dst, n, affine->scale, affine->shift);
  else if (e != Epilogue::kNone || src != dst)
    elementwise_switch<W, false>(e, src, dst, n, 0.f, 0.f);
}

/// Backend::elementwise_rows at lane width W: row r runs exactly the
/// affine elementwise loop with (scale[r], shift[r]), so the result is
/// bitwise that of one elementwise call per row.
template <int W>
void elementwise_rows_lanes(Epilogue e, const float* src, float* dst,
                            std::size_t rows, std::size_t len,
                            const float* scale, const float* shift) {
  const auto each_row = [&]<Epilogue E>() {
    for (std::size_t r = 0; r < rows; ++r)
      elementwise_run<W, E, true>(src + r * len, dst + r * len, len,
                                  scale[r], shift[r]);
  };
  switch (e) {
    case Epilogue::kNone: return each_row.template operator()<Epilogue::kNone>();
    case Epilogue::kReLU: return each_row.template operator()<Epilogue::kReLU>();
    case Epilogue::kReLU6:
      return each_row.template operator()<Epilogue::kReLU6>();
    case Epilogue::kSiLU: return each_row.template operator()<Epilogue::kSiLU>();
    case Epilogue::kHardSwish:
      return each_row.template operator()<Epilogue::kHardSwish>();
    case Epilogue::kGELU: return each_row.template operator()<Epilogue::kGELU>();
  }
}

inline float a_elem(const float* a, int lda, bool trans, int m, int k) {
  return trans ? a[static_cast<std::size_t>(k) * lda + m]
               : a[static_cast<std::size_t>(m) * lda + k];
}

inline float b_elem(const float* b, int ldb, bool trans, int k, int n) {
  return trans ? b[static_cast<std::size_t>(n) * ldb + k]
               : b[static_cast<std::size_t>(k) * ldb + n];
}

// Code-domain element access: decode float(lut[code] * scale) at the point
// the pack reads the element.  The expression must stay textually identical
// to decode_codes — one double multiply, one float cast — so code-domain
// packs are byte-identical to float packs of the eagerly decoded matrix.
inline float qa_elem(const std::uint8_t* a, int lda, bool trans,
                     const double* lut, const double* scales, int m, int k) {
  const std::uint8_t code = trans ? a[static_cast<std::size_t>(k) * lda + m]
                                  : a[static_cast<std::size_t>(m) * lda + k];
  return static_cast<float>(lut[code] * scales[m]);
}

inline float qb_elem(const std::uint8_t* b, int ldb, bool trans,
                     const double* lut, const double* scales, int k, int n) {
  const std::uint8_t code = trans ? b[static_cast<std::size_t>(n) * ldb + k]
                                  : b[static_cast<std::size_t>(k) * ldb + n];
  return static_cast<float>(lut[code] * scales[n]);
}

/// Pack an (mc x kc) block of op(A) into MR-row panels, k-major within a
/// panel (panel i holds rows [i*MR, i*MR+MR), laid out [k][m]); short final
/// panels are zero-padded so the micro-kernel never reads garbage.
template <int MR>
void pack_a_block(const float* a, int lda, bool trans, int m0, int mc, int k0,
                  int kc, float* dst) {
  for (int ip = 0; ip < mc; ip += MR) {
    const int mr = std::min(MR, mc - ip);
    for (int k = 0; k < kc; ++k) {
      for (int m = 0; m < mr; ++m)
        dst[k * MR + m] = a_elem(a, lda, trans, m0 + ip + m, k0 + k);
      for (int m = mr; m < MR; ++m) dst[k * MR + m] = 0.f;
    }
    dst += static_cast<std::size_t>(kc) * MR;
  }
}

/// Pack a (kc x nc) block of op(B) into NR-column panels, [k][n] within a
/// panel, zero-padded like pack_a_block.
template <int NR>
void pack_b_block(const float* b, int ldb, bool trans, int k0, int kc, int n0,
                  int nc, float* dst) {
  for (int jp = 0; jp < nc; jp += NR) {
    const int nr = std::min(NR, nc - jp);
    for (int k = 0; k < kc; ++k) {
      for (int n = 0; n < nr; ++n)
        dst[k * NR + n] = b_elem(b, ldb, trans, k0 + k, n0 + jp + n);
      for (int n = nr; n < NR; ++n) dst[k * NR + n] = 0.f;
    }
    dst += static_cast<std::size_t>(kc) * NR;
  }
}

/// pack_a_block over codes: same panel layout and zero padding, with the
/// LUT decode inlined into the element read.
template <int MR>
void pack_a_codes_block(const std::uint8_t* a, int lda, bool trans,
                        const double* lut, const double* scales, int m0, int mc,
                        int k0, int kc, float* dst) {
  for (int ip = 0; ip < mc; ip += MR) {
    const int mr = std::min(MR, mc - ip);
    for (int k = 0; k < kc; ++k) {
      for (int m = 0; m < mr; ++m)
        dst[k * MR + m] =
            qa_elem(a, lda, trans, lut, scales, m0 + ip + m, k0 + k);
      for (int m = mr; m < MR; ++m) dst[k * MR + m] = 0.f;
    }
    dst += static_cast<std::size_t>(kc) * MR;
  }
}

/// pack_b_block over codes, mirroring pack_b_block the same way.
template <int NR>
void pack_b_codes_block(const std::uint8_t* b, int ldb, bool trans,
                        const double* lut, const double* scales, int k0, int kc,
                        int n0, int nc, float* dst) {
  for (int jp = 0; jp < nc; jp += NR) {
    const int nr = std::min(NR, nc - jp);
    for (int k = 0; k < kc; ++k) {
      for (int n = 0; n < nr; ++n)
        dst[k * NR + n] =
            qb_elem(b, ldb, trans, lut, scales, k0 + k, n0 + jp + n);
      for (int n = nr; n < NR; ++n) dst[k * NR + n] = 0.f;
    }
    dst += static_cast<std::size_t>(kc) * NR;
  }
}

/// pack_a_block over 8-bit codes remapped to int8 levels: panels are
/// [group][m][j] with KG-wide k groups, k extent padded to a multiple of KG
/// and row pads zero-filled.  XOR is applied to every stored byte (including
/// pads): 0 for two's-complement level panels, 0x80 for the AVX-512 VNNI
/// layout, which stores A levels biased by 128 (q ^ 0x80 == q + 128 as a
/// byte) so vpdpbusd's unsigned operand sees u8 = q + 128.
template <int MR, int KG, int XOR = 0>
void pack_a_int8_block(const std::uint8_t* a, int lda, bool trans,
                       const std::int8_t* qlut, int m0, int mc, int k0, int kc,
                       std::int8_t* dst) {
  const int groups = (kc + KG - 1) / KG;
  const int full_g = kc / KG;
  for (int ip = 0; ip < mc; ip += MR) {
    const int mr = std::min(MR, mc - ip);
    int g0 = 0;
    if (!trans && mr == MR) {
      // Full row panel over row-major A: every (m, group) is a contiguous
      // KG-byte run through the LUT, so the per-element bounds tests of the
      // general loop below vanish.  Byte-identical output — this is the hot
      // shape for per-call activation packs (Linear A operand).
      for (int m = 0; m < MR; ++m) {
        const std::uint8_t* row =
            a + static_cast<std::size_t>(m0 + ip + m) * lda + k0;
        std::int8_t* dm = dst + static_cast<std::size_t>(m) * KG;
        for (int g = 0; g < full_g; ++g) {
          const std::uint8_t* src = row + static_cast<std::size_t>(g) * KG;
          std::int8_t* dg = dm + static_cast<std::size_t>(g) * MR * KG;
          for (int j = 0; j < KG; ++j)
            dg[j] = static_cast<std::int8_t>(qlut[src[j]] ^ XOR);
        }
      }
      g0 = full_g;
    }
    for (int g = g0; g < groups; ++g) {
      for (int m = 0; m < MR; ++m) {
        for (int j = 0; j < KG; ++j) {
          const int k = g * KG + j;
          std::int8_t v = 0;
          if (m < mr && k < kc) {
            const std::uint8_t code =
                trans ? a[static_cast<std::size_t>(k0 + k) * lda + m0 + ip + m]
                      : a[static_cast<std::size_t>(m0 + ip + m) * lda + k0 + k];
            v = qlut[code];
          }
          dst[(static_cast<std::size_t>(g) * MR + m) * KG + j] =
              static_cast<std::int8_t>(v ^ XOR);
        }
      }
    }
    dst += static_cast<std::size_t>(groups) * MR * KG;
  }
}

/// Interleave KG level rows (NR bytes each) into one packed group:
/// dst[n*KG + j] = rows[j][n].  This is the identity-map inner loop of the
/// B packs; NR/KG are panel constants, so the constant-index shuffles below
/// compile to a handful of byte unpacks under whatever vector ISA the TU is
/// built with (GCC vector extensions are target-independent, with a scalar
/// word-compose fallback for geometries no backend uses).
template <int NR, int KG>
inline void interleave_rows_i8(const std::uint8_t* const* rows,
                               std::int8_t* dst) {
  if constexpr (KG == 1) {
    std::memcpy(dst, rows[0], NR);
  } else if constexpr (NR == 16 && KG == 2) {
    typedef std::uint8_t V16 __attribute__((vector_size(16)));
    V16 a, b;
    std::memcpy(&a, rows[0], 16);
    std::memcpy(&b, rows[1], 16);
    const V16 lo = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19, 4,
                                           20, 5, 21, 6, 22, 7, 23);
    const V16 hi = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27,
                                           12, 28, 13, 29, 14, 30, 15, 31);
    std::memcpy(dst, &lo, 16);
    std::memcpy(dst + 16, &hi, 16);
  } else if constexpr (NR == 16 && KG == 4) {
    typedef std::uint8_t V16 __attribute__((vector_size(16)));
    V16 a, b, c, d;
    std::memcpy(&a, rows[0], 16);
    std::memcpy(&b, rows[1], 16);
    std::memcpy(&c, rows[2], 16);
    std::memcpy(&d, rows[3], 16);
    // Two unpack levels: bytes (a0 b0 a1 b1 ...) then byte pairs
    // (a0 b0 c0 d0 a1 b1 c1 d1 ...) — the classic 4xN byte transpose.
    const V16 ab0 = __builtin_shufflevector(a, b, 0, 16, 1, 17, 2, 18, 3, 19,
                                            4, 20, 5, 21, 6, 22, 7, 23);
    const V16 ab1 = __builtin_shufflevector(a, b, 8, 24, 9, 25, 10, 26, 11, 27,
                                            12, 28, 13, 29, 14, 30, 15, 31);
    const V16 cd0 = __builtin_shufflevector(c, d, 0, 16, 1, 17, 2, 18, 3, 19,
                                            4, 20, 5, 21, 6, 22, 7, 23);
    const V16 cd1 = __builtin_shufflevector(c, d, 8, 24, 9, 25, 10, 26, 11, 27,
                                            12, 28, 13, 29, 14, 30, 15, 31);
    const V16 o0 = __builtin_shufflevector(ab0, cd0, 0, 1, 16, 17, 2, 3, 18,
                                           19, 4, 5, 20, 21, 6, 7, 22, 23);
    const V16 o1 = __builtin_shufflevector(ab0, cd0, 8, 9, 24, 25, 10, 11, 26,
                                           27, 12, 13, 28, 29, 14, 15, 30, 31);
    const V16 o2 = __builtin_shufflevector(ab1, cd1, 0, 1, 16, 17, 2, 3, 18,
                                           19, 4, 5, 20, 21, 6, 7, 22, 23);
    const V16 o3 = __builtin_shufflevector(ab1, cd1, 8, 9, 24, 25, 10, 11, 26,
                                           27, 12, 13, 28, 29, 14, 15, 30, 31);
    std::memcpy(dst, &o0, 16);
    std::memcpy(dst + 16, &o1, 16);
    std::memcpy(dst + 32, &o2, 16);
    std::memcpy(dst + 48, &o3, 16);
  } else if constexpr (NR == 8 && KG == 4) {
    typedef std::uint8_t V8 __attribute__((vector_size(8)));
    V8 a, b, c, d;
    std::memcpy(&a, rows[0], 8);
    std::memcpy(&b, rows[1], 8);
    std::memcpy(&c, rows[2], 8);
    std::memcpy(&d, rows[3], 8);
    const V8 ab0 = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11);
    const V8 ab1 = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15);
    const V8 cd0 = __builtin_shufflevector(c, d, 0, 8, 1, 9, 2, 10, 3, 11);
    const V8 cd1 = __builtin_shufflevector(c, d, 4, 12, 5, 13, 6, 14, 7, 15);
    const V8 o0 = __builtin_shufflevector(ab0, cd0, 0, 1, 8, 9, 2, 3, 10, 11);
    const V8 o1 = __builtin_shufflevector(ab0, cd0, 4, 5, 12, 13, 6, 7, 14, 15);
    const V8 o2 = __builtin_shufflevector(ab1, cd1, 0, 1, 8, 9, 2, 3, 10, 11);
    const V8 o3 = __builtin_shufflevector(ab1, cd1, 4, 5, 12, 13, 6, 7, 14, 15);
    std::memcpy(dst, &o0, 8);
    std::memcpy(dst + 8, &o1, 8);
    std::memcpy(dst + 16, &o2, 8);
    std::memcpy(dst + 24, &o3, 8);
  } else if constexpr (NR == 8 && KG == 2) {
    typedef std::uint8_t V8 __attribute__((vector_size(8)));
    V8 a, b;
    std::memcpy(&a, rows[0], 8);
    std::memcpy(&b, rows[1], 8);
    const V8 lo = __builtin_shufflevector(a, b, 0, 8, 1, 9, 2, 10, 3, 11);
    const V8 hi = __builtin_shufflevector(a, b, 4, 12, 5, 13, 6, 14, 7, 15);
    std::memcpy(dst, &lo, 8);
    std::memcpy(dst + 8, &hi, 8);
  } else {
    for (int n = 0; n < NR; ++n) {
      std::uint32_t wv = 0;
      for (int j = 0; j < KG; ++j)
        wv |= static_cast<std::uint32_t>(rows[j][n]) << (8 * j);
      std::memcpy(dst + n * KG, &wv, KG);
    }
  }
}

/// pack_b_block over codes into [group][n][j] int8 panels, padded like
/// pack_a_int8_block (B panels always hold plain two's-complement levels).
template <int NR, int KG>
void pack_b_int8_block(const std::uint8_t* b, int ldb, bool trans,
                       const std::int8_t* qlut, int k0, int kc, int n0, int nc,
                       std::int8_t* dst) {
  const int groups = (kc + KG - 1) / KG;
  const int full_g = kc / KG;
  for (int jp = 0; jp < nc; jp += NR) {
    const int nr = std::min(NR, nc - jp);
    int g0 = 0;
    if (nr == NR) {
      // Full column panel: drop the per-element bounds tests for the whole
      // k-groups (the ragged tail group, if any, falls through to the
      // general loop).  Byte-identical output; this is the hot shape for
      // per-call activation packs (conv im2col B operand).
      if (trans) {
        for (int n = 0; n < NR; ++n) {
          const std::uint8_t* row =
              b + static_cast<std::size_t>(n0 + jp + n) * ldb + k0;
          std::int8_t* dn = dst + static_cast<std::size_t>(n) * KG;
          for (int g = 0; g < full_g; ++g) {
            const std::uint8_t* src = row + static_cast<std::size_t>(g) * KG;
            std::int8_t* dg = dn + static_cast<std::size_t>(g) * NR * KG;
            for (int j = 0; j < KG; ++j) dg[j] = qlut[src[j]];
          }
        }
      } else {
        // Codes already ARE the levels when the map is identity (the conv
        // im2col operand), so the group interleave runs as straight byte
        // shuffles with no table lookup.
        const bool ident = qlut == identity_qlut();
        for (int g = 0; g < full_g; ++g) {
          std::int8_t* dg = dst + static_cast<std::size_t>(g) * NR * KG;
          const std::uint8_t* rows[KG];
          for (int j = 0; j < KG; ++j)
            rows[j] =
                b + static_cast<std::size_t>(k0 + g * KG + j) * ldb + n0 + jp;
          if (ident) {
            interleave_rows_i8<NR, KG>(rows, dg);
            continue;
          }
          // Compose each column's KG levels into one word and store it whole
          // (KG is 1/2/4): sequential word stores instead of a stride-KG
          // byte scatter, ~2x faster on the per-call activation pack.
          for (int n = 0; n < NR; ++n) {
            std::uint32_t wv = 0;
            for (int j = 0; j < KG; ++j)
              wv |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(
                        qlut[rows[j][n]]))
                    << (8 * j);
            std::memcpy(dg + n * KG, &wv, KG);
          }
        }
      }
      g0 = full_g;
    }
    for (int g = g0; g < groups; ++g) {
      for (int n = 0; n < NR; ++n) {
        for (int j = 0; j < KG; ++j) {
          const int k = g * KG + j;
          std::int8_t v = 0;
          if (n < nr && k < kc) {
            const std::uint8_t code =
                trans ? b[static_cast<std::size_t>(n0 + jp + n) * ldb + k0 + k]
                      : b[static_cast<std::size_t>(k0 + k) * ldb + n0 + jp + n];
            v = qlut[code];
          }
          dst[(static_cast<std::size_t>(g) * NR + n) * KG + j] = v;
        }
      }
    }
    dst += static_cast<std::size_t>(groups) * NR * KG;
  }
}

/// pack_a_int8_block over a float source: the backend's level quantizer
/// (`Quantize`, its Backend::quantize_levels) runs on each contiguous run
/// of the source (a whole k-row when !trans; a gathered
/// column otherwise) through a small stack buffer, and the resulting levels
/// distribute into the same [group][m][j] layout with the same XOR and
/// padding rules.  The quantizer is elementwise, so panels are
/// byte-identical to pack_a_int8_block over pre-quantized levels.
template <QuantizeLevelsFn Quantize, int MR, int KG, int XOR = 0>
void pack_a_int8_f32_block(const float* a, int lda, bool trans, double inv,
                           int lo, int hi, int m0, int mc, int k0, int kc,
                           std::int8_t* dst) {
  constexpr int kChunk = 256;  // multiple of every KG (1/2/4)
  const int groups = (kc + KG - 1) / KG;
  for (int ip = 0; ip < mc; ip += MR) {
    const int mr = std::min(MR, mc - ip);
    for (int m = 0; m < MR; ++m) {
      std::int8_t* dm = dst + static_cast<std::size_t>(m) * KG;
      if (m < mr) {
        float tmp[kChunk];
        std::int8_t q[kChunk];
        for (int kb = 0; kb < kc; kb += kChunk) {
          const int len = std::min(kChunk, kc - kb);
          const float* src;
          if (!trans) {
            src = a + static_cast<std::size_t>(m0 + ip + m) * lda + k0 + kb;
          } else {
            for (int i = 0; i < len; ++i)
              tmp[i] =
                  a[static_cast<std::size_t>(k0 + kb + i) * lda + m0 + ip + m];
            src = tmp;
          }
          Quantize(src, static_cast<std::size_t>(len), inv, lo, hi, q);
          // A group's KG levels are contiguous at dm + g*MR*KG: compose them
          // (with the byte bias) into one word and store it whole.
          constexpr std::uint32_t xmask = 0x01010101u * XOR;
          int i = 0;
          for (; i + KG <= len; i += KG) {
            std::uint32_t wv = 0;
            for (int j = 0; j < KG; ++j)
              wv |= static_cast<std::uint32_t>(
                        static_cast<std::uint8_t>(q[i + j]))
                    << (8 * j);
            wv ^= xmask;
            std::memcpy(
                dm + static_cast<std::size_t>((kb + i) / KG) * MR * KG, &wv,
                KG);
          }
          for (; i < len; ++i) {
            const int k = kb + i;
            dm[static_cast<std::size_t>(k / KG) * MR * KG + k % KG] =
                static_cast<std::int8_t>(q[i] ^ XOR);
          }
        }
      }
      for (int k = m < mr ? kc : 0; k < groups * KG; ++k)
        dm[static_cast<std::size_t>(k / KG) * MR * KG + k % KG] =
            static_cast<std::int8_t>(XOR);  // zero level, biased like the rest
    }
    dst += static_cast<std::size_t>(groups) * MR * KG;
  }
}

/// pack_b_int8_block over a float source (B panels are always plain
/// two's-complement levels).  !trans is the hot orientation (conv im2col
/// columns): row k of op(B) is contiguous, so one quantizer call per k
/// covers every panel of the block.
template <QuantizeLevelsFn Quantize, int NR, int KG>
void pack_b_int8_f32_block(const float* b, int ldb, bool trans, double inv,
                           int lo, int hi, int k0, int kc, int n0, int nc,
                           std::int8_t* dst) {
  const int groups = (kc + KG - 1) / KG;
  const std::size_t panel = static_cast<std::size_t>(groups) * NR * KG;
  // Zero every pad byte up front (the ragged last panel and the k tail
  // group); the fill passes below then touch only real elements.
  for (int jp = 0; jp < nc; jp += NR) {
    std::int8_t* pd = dst + static_cast<std::size_t>(jp / NR) * panel;
    if (nc - jp < NR) {
      std::memset(pd, 0, panel);
    } else if (kc < groups * KG) {
      std::int8_t* pg = pd + static_cast<std::size_t>(groups - 1) * NR * KG;
      const int j0 = kc - (groups - 1) * KG;
      for (int n = 0; n < NR; ++n)
        for (int j = j0; j < KG; ++j) pg[n * KG + j] = 0;
    }
  }
  if (!trans) {
    // Row k of op(B) is contiguous in `b`, so each of a group's KG source
    // rows quantizes in one SIMD sweep; the interleave then composes every
    // column's KG levels into a single word store (see pack_b_int8_block).
    constexpr int kChunk = 1024;  // multiple of every NR (8/16)
    std::int8_t qr[KG][kChunk];
    for (int nb = 0; nb < nc; nb += kChunk) {
      const int len = std::min(kChunk, nc - nb);
      for (int g = 0; g < groups; ++g) {
        for (int j = 0; j < KG; ++j) {
          const int k = g * KG + j;
          if (k < kc)
            Quantize(b + static_cast<std::size_t>(k0 + k) * ldb + n0 + nb,
                     static_cast<std::size_t>(len), inv, lo, hi, qr[j]);
          else
            std::memset(qr[j], 0, static_cast<std::size_t>(len));
        }
        for (int jpo = 0; jpo < len; jpo += NR) {
          std::int8_t* dg = dst +
                            static_cast<std::size_t>((nb + jpo) / NR) * panel +
                            static_cast<std::size_t>(g) * NR * KG;
          const int nr = std::min(NR, len - jpo);
          if (nr == NR) {
            // qr rows already hold levels — the full-panel interleave is the
            // same byte shuffle the identity pack uses.
            const std::uint8_t* rp[KG];
            for (int j = 0; j < KG; ++j)
              rp[j] = reinterpret_cast<const std::uint8_t*>(qr[j]) + jpo;
            interleave_rows_i8<NR, KG>(rp, dg);
            continue;
          }
          for (int n = 0; n < nr; ++n) {
            std::uint32_t wv = 0;
            for (int j = 0; j < KG; ++j)
              wv |= static_cast<std::uint32_t>(
                        static_cast<std::uint8_t>(qr[j][jpo + n]))
                    << (8 * j);
            std::memcpy(dg + n * KG, &wv, KG);
          }
        }
      }
    }
  } else {
    // op(B) column n is a contiguous k-row of `b`: quantize it whole, then
    // distribute into the [group][n][j] layout.
    constexpr int kChunk = 256;
    std::int8_t q[kChunk];
    for (int n = 0; n < nc; ++n) {
      const float* src = b + static_cast<std::size_t>(n0 + n) * ldb + k0;
      std::int8_t* dn = dst + static_cast<std::size_t>(n / NR) * panel +
                        static_cast<std::size_t>(n % NR) * KG;
      for (int kb = 0; kb < kc; kb += kChunk) {
        const int len = std::min(kChunk, kc - kb);
        Quantize(src + kb, static_cast<std::size_t>(len), inv, lo, hi, q);
        for (int i = 0; i < len; ++i) {
          const int k = kb + i;
          dn[static_cast<std::size_t>(k / KG) * NR * KG + k % KG] = q[i];
        }
      }
    }
  }
}

/// Generic int8 micro-kernel over the [group][row/col][j] panel layout:
/// acc[m][n] += Σ qa·qb in int32.  Exact integer arithmetic, so this is the
/// reference every intrinsic kernel must match bitwise (and trivially does —
/// integer sums are order-independent).  Handles full and edge tiles.
template <int MR, int NR, int KG>
void micro_int8_generic(int kc, const std::int8_t* ap, const std::int8_t* bp,
                        std::int32_t* acc, int ldacc, int mr, int nr) {
  const int groups = (kc + KG - 1) / KG;
  for (int m = 0; m < mr; ++m) {
    for (int n = 0; n < nr; ++n) {
      std::int32_t s = 0;
      for (int g = 0; g < groups; ++g) {
        const std::int8_t* am =
            ap + (static_cast<std::size_t>(g) * MR + m) * KG;
        const std::int8_t* bn =
            bp + (static_cast<std::size_t>(g) * NR + n) * KG;
        for (int j = 0; j < KG; ++j)
          s += static_cast<std::int32_t>(am[j]) *
               static_cast<std::int32_t>(bn[j]);
      }
      acc[static_cast<std::size_t>(m) * ldacc + n] += s;
    }
  }
}

/// Fused write-back of one finished C row: row m's affine (when asc is
/// set) then the epilogue, through the TU's W-lane elementwise kernel.
template <int W>
inline void write_back_row(const float* acc, float* c, int n, Epilogue epi,
                           const float* asc, const float* ash, int m) {
  const ScalarAffine aff{asc != nullptr ? asc[m] : 0.f,
                         asc != nullptr ? ash[m] : 0.f};
  elementwise_lanes<W>(epi, acc, c, static_cast<std::size_t>(n),
                       asc != nullptr ? &aff : nullptr);
}

/// Generic MR x NR micro-kernel (full and edge tiles in one entry point):
/// load C, accumulate kc products in ascending k order, write back with the
/// optional per-row affine then epilogue (W: the TU's elementwise lane
/// width).  Constant trip counts on the full-tile path so the inner n-loop
/// auto-vectorizes under the TU's -m flags.
template <int MR, int NR, int W>
void micro_generic(int kc, const float* ap, const float* bp, float* c, int ldc,
                   int mr, int nr, Epilogue epi, const float* asc,
                   const float* ash) {
  if (mr == MR && nr == NR) {
    float acc[MR][NR];
    for (int m = 0; m < MR; ++m)
      for (int n = 0; n < NR; ++n)
        acc[m][n] = c[static_cast<std::size_t>(m) * ldc + n];
    for (int k = 0; k < kc; ++k) {
      const float* av = ap + static_cast<std::size_t>(k) * MR;
      const float* bv = bp + static_cast<std::size_t>(k) * NR;
      for (int m = 0; m < MR; ++m) {
        const float a = av[m];
        for (int n = 0; n < NR; ++n) acc[m][n] += a * bv[n];
      }
    }
    if (epi == Epilogue::kNone && asc == nullptr) {
      for (int m = 0; m < MR; ++m)
        for (int n = 0; n < NR; ++n)
          c[static_cast<std::size_t>(m) * ldc + n] = acc[m][n];
    } else {
      for (int m = 0; m < MR; ++m)
        write_back_row<W>(acc[m], c + static_cast<std::size_t>(m) * ldc, NR,
                          epi, asc, ash, m);
    }
    return;
  }
  // Edge tile (mr < MR and/or nr < NR): same accumulation order, partial
  // loads/stores.  The packed panels are zero-padded, so the k-loop may
  // still run the full NR width internally — but only real C entries are
  // touched.
  float acc[MR][NR] = {};
  for (int m = 0; m < mr; ++m)
    for (int n = 0; n < nr; ++n)
      acc[m][n] = c[static_cast<std::size_t>(m) * ldc + n];
  for (int k = 0; k < kc; ++k) {
    const float* av = ap + static_cast<std::size_t>(k) * MR;
    const float* bv = bp + static_cast<std::size_t>(k) * NR;
    for (int m = 0; m < mr; ++m) {
      const float a = av[m];
      for (int n = 0; n < NR; ++n) acc[m][n] += a * bv[n];
    }
  }
  for (int m = 0; m < mr; ++m)
    write_back_row<W>(acc[m], c + static_cast<std::size_t>(m) * ldc, nr, epi,
                      asc, ash, m);
}

}  // namespace mersit::nn::gemm::detail
