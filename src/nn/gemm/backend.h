// Runtime-dispatched SIMD backend registry for the GEMM engine.
//
// One Backend descriptor per instruction set — scalar (the reference),
// avx2, avx512 on x86-64, neon on aarch64 — each bundling the micro-kernel,
// the panel-pack routines (float, code-domain and int8), the int8 level
// quantizer, the elementwise activation entry, and its tile geometry (MR/NR
// register tile, MC/KC/NC cache blocks).  The registry is CPUID-backed:
// auto-detection walks the compiled-in list best-first and
// activates the first backend the host can execute; MERSIT_BACKEND forces a
// specific one, strict-parsed (unknown names and backends the host cannot
// run both throw).
//
// The cross-backend contract is the engine's existing bit-identity tower:
//
//  * Packs are byte-identical.  Every backend's pack routines write the
//    exact bytes the generic reference pack produces for that backend's
//    tile geometry — same zero padding, and for the code-domain packs the
//    same single double-multiply-then-float-cast per element.  test_qgemm
//    gates this exhaustively over all 256 codes per compiled-in backend.
//
//  * C panels are bit-identical to scalar.  Every backend accumulates each
//    output element's K products in ascending k order with a separately
//    rounded multiply and add per step (no fused multiply-add anywhere —
//    FMA skips the product rounding and would break ULP 0 against the
//    scalar reference; the backend TUs also compile with -ffp-contract=off
//    so the compiler cannot fuse behind the intrinsics).  Tile geometry may
//    differ per backend because the per-element rounding sequence depends
//    only on k order, never on MR/NR/cache blocking — test_gemm gates every
//    compiled-in backend bitwise against scalar across the full shape/
//    transpose/strided-C/thread-count matrix.
//
//  * Elementwise results are bit-identical to scalar.  The activation
//    epilogues (and the exp inside SiLU) are one formula set written over a
//    lane type (backend_impl.h): the same separately rounded operations per
//    lane at every width, selects instead of branches, no libm call.  A NaN
//    result stays NaN; only its payload bits may differ between widths.
//
// Because pack layouts differ across tile geometries, a PackedMatrix
// records the backend it was packed for, sgemm rejects operands packed for
// a foreign backend, and the layer-side pack caches key on the backend id —
// switching MERSIT_BACKEND can never serve a foreign-layout pack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "nn/gemm/gemm.h"

namespace mersit::nn::gemm {

/// One SIMD backend: tile geometry plus the kernel entry points.  All
/// instances are immutable statics with process lifetime; identity
/// comparison (pointer equality) is meaningful.
struct Backend {
  const char* name;  ///< registry / MERSIT_BACKEND name
  int id;            ///< stable small unique id (< 16), joins pack-cache keys

  int mr, nr;        ///< register tile: MR x NR accumulator block
  int mc, kc, nc;    ///< cache blocks: MC x KC A panels, KC x NC B panels

  /// Host can execute this backend's instructions (CPUID-backed; constant
  /// per process).
  bool (*supported)();

  /// Pack an (mc x kc) block of op(A) into mr-row panels, k-major within a
  /// panel, short final panels zero-padded.  `dst` must be 64-byte aligned
  /// and hold ceil(mc/mr)*mr*kc floats.
  void (*pack_a)(const float* a, int lda, bool trans, int m0, int mc, int k0,
                 int kc, float* dst);
  /// Pack a (kc x nc) block of op(B) into nr-column panels, [k][n] within a
  /// panel, zero-padded like pack_a.
  void (*pack_b)(const float* b, int ldb, bool trans, int k0, int kc, int n0,
                 int nc, float* dst);
  /// pack_a over 8-bit codes: float(lut[code] * scales[m]) decoded at the
  /// element read, byte-identical to pack_a over the eagerly decoded matrix.
  void (*pack_a_codes)(const std::uint8_t* a, int lda, bool trans,
                       const double* lut, const double* scales, int m0, int mc,
                       int k0, int kc, float* dst);
  /// pack_b over 8-bit codes (column scale scales[n]).
  void (*pack_b_codes)(const std::uint8_t* b, int ldb, bool trans,
                       const double* lut, const double* scales, int k0, int kc,
                       int n0, int nc, float* dst);

  /// One (mr x nr) C tile: load C, accumulate kc products in ascending k
  /// order, write back with the optional per-row affine then epilogue.
  /// mr/nr may be short on edge tiles; the packed panels are zero-padded to
  /// the full register tile, so kernels may compute full width internally
  /// as long as only real C entries are read and written.
  void (*micro)(int kc, const float* ap, const float* bp, float* c, int ldc,
                int mr, int nr, Epilogue epi, const float* asc,
                const float* ash);

  // --- Decode-free int8 path (MERSIT_QGEMM=int8) ---------------------------
  // The int8 kernels accumulate level products in int32, which is exact and
  // associative, so the bit-identity contract holds across backends with no
  // ordering rules at all — any k order, any widening scheme, FMA-free by
  // nature.  Panel layouts group k in `kg8`-wide runs: A panels are
  // [group][m][j] (j < kg8), B panels [group][n][j], the packed k extent
  // rounded up to a multiple of kg8 with zero levels in the padding.  Panel
  // bytes are backend-private (the AVX-512 pack biases A levels by 128 for
  // vpdpbusd's u8 operand); a pack is only valid for the backend that made
  // it, enforced exactly like PackedMatrix via PackedInt8::backend_id.

  /// K-group width of this backend's int8 panel layout (1, 2, or 4).
  int kg8;

  /// Pack an (mc x kc) block of op(A) 8-bit codes through the code→level
  /// remap `qlut` into mr-row int8 panels.  `dst` must be 64-byte aligned
  /// and hold ceil(mc/mr)*mr*round_up(kc, kg8) bytes.
  void (*pack_a_int8)(const std::uint8_t* a, int lda, bool trans,
                      const std::int8_t* qlut, int m0, int mc, int k0, int kc,
                      std::int8_t* dst);
  /// Pack a (kc x nc) block of op(B) codes into nr-column int8 panels.
  void (*pack_b_int8)(const std::uint8_t* b, int ldb, bool trans,
                      const std::int8_t* qlut, int k0, int kc, int n0, int nc,
                      std::int8_t* dst);

  /// One (mr x nr) int32 tile: acc[m*ldacc + n] += Σ_k qa·qb over this
  /// k-block's kc levels (kc is the unpadded extent; the panels are padded
  /// to round_up(kc, kg8) with zeros, which add nothing).  Accumulation is
  /// += so k-blocks chain; the driver zeroes acc at tile start and dequants
  /// after the last k-block.  Edge tiles (mr/nr short) must write only the
  /// real acc entries.
  void (*micro_int8)(int kc, const std::int8_t* ap, const std::int8_t* bp,
                     std::int32_t* acc, int ldacc, int mr, int nr);

  /// pack_a_int8 over a *float* source: each element quantizes onto the
  /// level grid — q = clamp(RNE(v·inv), lo, hi), exactly quantize_levels —
  /// fused into the panel distribution (one pass, no intermediate level
  /// buffer).  Same layout, padding, and byte bias rules as pack_a_int8, so
  /// panels are byte-identical to packing pre-quantized levels through the
  /// identity map.
  void (*pack_a_int8_f32)(const float* a, int lda, bool trans, double inv,
                          int lo, int hi, int m0, int mc, int k0, int kc,
                          std::int8_t* dst);
  /// pack_b_int8 over a float source, mirroring pack_a_int8_f32.
  void (*pack_b_int8_f32)(const float* b, int ldb, bool trans, double inv,
                          int lo, int hi, int k0, int kc, int n0, int nc,
                          std::int8_t* dst);

  /// The level quantizer behind gemm::quantize_levels and this backend's
  /// *_int8_f32 packs: out[i] = clamp(RNE(x[i]·inv), lo, hi), NaN → 0.
  /// Byte-identical across backends (test_qgemm_int8 gates it).
  void (*quantize_levels)(const float* x, std::size_t n, double inv, int lo,
                          int hi, std::int8_t* out);

  /// The elementwise entry behind gemm::epilogue_apply: dst[i] =
  /// epilogue_eval(e, affine ? scale*src[i] + shift : src[i]).  Every
  /// backend evaluates the one formula set of backend_impl.h (the in-repo
  /// exp included) at its own lane width — scalar element by element, the
  /// SIMD backends as W-float vectors in their -m/-ffp-contract=off TUs — so
  /// each non-NaN result is bit-identical to scalar and NaN stays NaN
  /// (test_elementwise gates every backend).  src == dst is allowed.
  void (*elementwise)(Epilogue e, const float* src, float* dst, std::size_t n,
                      const ScalarAffine* affine);
  /// Its per-row-affine form behind gemm::epilogue_apply_rows: for each of
  /// `rows` contiguous rows of `len` floats, elementwise with the affine
  /// (scale[r], shift[r]) — bitwise one elementwise call per row, in one
  /// call (inference BatchNorm's channel planes of one sample).
  void (*elementwise_rows)(Epilogue e, const float* src, float* dst,
                           std::size_t rows, std::size_t len,
                           const float* scale, const float* shift);
};

/// Compiled-in backends in detection order: best first, scalar last (scalar
/// is always present and always supported, so detection always terminates).
[[nodiscard]] std::span<const Backend* const> backends();

/// The reference backend (always compiled in, always supported).
[[nodiscard]] const Backend& scalar_backend();

/// Lookup by registry name; nullptr when no such backend is compiled in.
[[nodiscard]] const Backend* find_backend(std::string_view name);

/// Strict MERSIT_BACKEND parsing: unknown names throw listing the
/// compiled-in backends; a known backend the host cannot execute throws
/// naming the missing capability.  Same loud-beats-lucky policy as
/// core::env_int and MERSIT_QGEMM.
[[nodiscard]] const Backend& parse_backend(const std::string& value);

/// The active backend: MERSIT_BACKEND when set (strict-parsed once), else
/// the best supported compiled-in backend.  Every pack and every sgemm call
/// reads this.
[[nodiscard]] const Backend& active_backend();

/// Programmatic override (tests, benches); returns the previous backend.
/// Rejects backends the host cannot execute.
const Backend* set_backend(const Backend* b);

// Descriptor accessors defined by the backend_*.cpp translation units (the
// registry in backend.cpp is their only caller).
const Backend* backend_scalar();
#if defined(__x86_64__) || defined(_M_X64)
const Backend* backend_avx2();
const Backend* backend_avx512();
#endif
#if defined(__aarch64__)
const Backend* backend_neon();
#endif

}  // namespace mersit::nn::gemm
