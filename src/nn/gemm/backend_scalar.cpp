// The scalar reference backend: the engine's original plain-C++ 4x8
// micro-kernel and pack routines, now expressed as template instantiations
// of the shared generic kernels.  Compiled with the project's baseline
// flags (no -m options), so it runs on any host — it is the backend every
// SIMD implementation is gated bitwise against, and the terminal entry of
// the detection order.
//
// Register blocking: the micro-kernel keeps an MR x NR accumulator block in
// locals.  4 x 8 = 8 vector registers on baseline SSE2 (4-wide), leaving
// room for the A broadcast and B loads — 6 x 8 already spills on GCC 12 and
// runs ~4x slower.  MC/KC/NC size the packed panels for L2/L1 residency.
#include "nn/gemm/backend_impl.h"

#include <cmath>

namespace mersit::nn::gemm {

namespace detail {

// Kept exactly in sync with the vector quantizers: the whole int8 layer
// contract (ULP-0 across backends, thread invariance) leans on every lane
// producing the same byte regardless of which path quantized it.
void quantize_levels_scalar(const float* x, std::size_t n, double inv, int lo,
                            int hi, std::int8_t* out) {
  const double dlo = static_cast<double>(lo);
  const double dhi = static_cast<double>(hi);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(x[i]) * inv;
    int q;
    if (v >= dhi) {
      q = hi;
    } else if (v <= dlo) {
      q = lo;
    } else if (v != v) {  // NaN input: match encode-of-NaN gating upstream
      q = 0;
    } else {
      q = static_cast<int>(std::lrint(v));  // RNE under default fenv
    }
    out[i] = static_cast<std::int8_t>(q);
  }
}

}  // namespace detail

// The elementwise references live here, in the baseline-flags
// -ffp-contract=off TU: the W = 1 instances of the backend_impl.h formulas.
float exp_eval(float x) {
  return detail::exp_lanes<float, std::uint32_t>(x);
}

float sigmoid_eval(float x) {
  return detail::sigmoid_lanes<float, std::uint32_t>(x);
}

float epilogue_eval(Epilogue e, float x) {
  using detail::epilogue_lanes;
  using U = std::uint32_t;
  switch (e) {
    case Epilogue::kNone: return x;
    case Epilogue::kReLU: return epilogue_lanes<Epilogue::kReLU, float, U>(x);
    case Epilogue::kReLU6: return epilogue_lanes<Epilogue::kReLU6, float, U>(x);
    case Epilogue::kSiLU: return epilogue_lanes<Epilogue::kSiLU, float, U>(x);
    case Epilogue::kHardSwish:
      return epilogue_lanes<Epilogue::kHardSwish, float, U>(x);
    case Epilogue::kGELU: return epilogue_lanes<Epilogue::kGELU, float, U>(x);
  }
  return x;
}

namespace {

constexpr int kMR = 4;
constexpr int kNR = 8;

bool supported() { return true; }

void pack_a(const float* a, int lda, bool trans, int m0, int mc, int k0,
            int kc, float* dst) {
  detail::pack_a_block<kMR>(a, lda, trans, m0, mc, k0, kc, dst);
}

void pack_b(const float* b, int ldb, bool trans, int k0, int kc, int n0,
            int nc, float* dst) {
  detail::pack_b_block<kNR>(b, ldb, trans, k0, kc, n0, nc, dst);
}

void pack_a_codes(const std::uint8_t* a, int lda, bool trans,
                  const double* lut, const double* scales, int m0, int mc,
                  int k0, int kc, float* dst) {
  detail::pack_a_codes_block<kMR>(a, lda, trans, lut, scales, m0, mc, k0, kc,
                                  dst);
}

void pack_b_codes(const std::uint8_t* b, int ldb, bool trans,
                  const double* lut, const double* scales, int k0, int kc,
                  int n0, int nc, float* dst) {
  detail::pack_b_codes_block<kNR>(b, ldb, trans, lut, scales, k0, kc, n0, nc,
                                  dst);
}

void micro(int kc, const float* ap, const float* bp, float* c, int ldc,
           int mr, int nr, Epilogue epi, const float* asc, const float* ash) {
  detail::micro_generic<kMR, kNR, 1>(kc, ap, bp, c, ldc, mr, nr, epi, asc,
                                     ash);
}

// Int8 path: the generic templates at KG = 1 *are* the scalar reference the
// SIMD int8 kernels are gated bitwise against.
constexpr int kKG8 = 1;

void pack_a_int8(const std::uint8_t* a, int lda, bool trans,
                 const std::int8_t* qlut, int m0, int mc, int k0, int kc,
                 std::int8_t* dst) {
  detail::pack_a_int8_block<kMR, kKG8>(a, lda, trans, qlut, m0, mc, k0, kc,
                                       dst);
}

void pack_b_int8(const std::uint8_t* b, int ldb, bool trans,
                 const std::int8_t* qlut, int k0, int kc, int n0, int nc,
                 std::int8_t* dst) {
  detail::pack_b_int8_block<kNR, kKG8>(b, ldb, trans, qlut, k0, kc, n0, nc,
                                       dst);
}

void micro_int8(int kc, const std::int8_t* ap, const std::int8_t* bp,
                std::int32_t* acc, int ldacc, int mr, int nr) {
  detail::micro_int8_generic<kMR, kNR, kKG8>(kc, ap, bp, acc, ldacc, mr, nr);
}

void pack_a_int8_f32(const float* a, int lda, bool trans, double inv, int lo,
                     int hi, int m0, int mc, int k0, int kc,
                     std::int8_t* dst) {
  detail::pack_a_int8_f32_block<detail::quantize_levels_scalar, kMR, kKG8>(
      a, lda, trans, inv, lo, hi, m0, mc, k0, kc, dst);
}

void pack_b_int8_f32(const float* b, int ldb, bool trans, double inv, int lo,
                     int hi, int k0, int kc, int n0, int nc,
                     std::int8_t* dst) {
  detail::pack_b_int8_f32_block<detail::quantize_levels_scalar, kNR, kKG8>(
      b, ldb, trans, inv, lo, hi, k0, kc, n0, nc, dst);
}

constexpr Backend kScalar = {
    "scalar", /*id=*/0, kMR,    kNR,    /*mc=*/120,   /*kc=*/256,
    /*nc=*/1024,        supported,      pack_a,       pack_b,
    pack_a_codes,       pack_b_codes,   micro,
    /*kg8=*/kKG8,       pack_a_int8,    pack_b_int8,  micro_int8,
    pack_a_int8_f32,    pack_b_int8_f32,    detail::quantize_levels_scalar,
    detail::elementwise_lanes<1>,
};

}  // namespace

const Backend* backend_scalar() { return &kScalar; }

}  // namespace mersit::nn::gemm
