// Dense single-precision GEMM for the inference hot paths.
//
// A cache-blocked, packing SGEMM whose register-tiled micro-kernel and
// panel-pack routines are dispatched through a runtime SIMD backend
// registry (nn/gemm/backend.h): scalar (plain C++, the reference), AVX2 and
// AVX-512 on x86-64, NEON on aarch64 — CPUID-detected, forceable via
// MERSIT_BACKEND, and all bit-identical to scalar (no -ffast-math, no fused
// multiply-adds).  Three properties the rest of the repo leans on:
//
//  * Fixed k-order summation.  Every output element accumulates its K
//    products in ascending k order, starting from its initial value (zero,
//    a broadcast bias, or the existing C for accumulating calls).  The
//    compiler cannot reassociate float adds, so the per-element rounding
//    sequence is exactly the naive triple loop's — GEMM outputs are
//    bit-identical to the reference layer implementations.
//
//  * Thread-count invariance.  Parallelism is over disjoint (MC x NC)
//    output tiles; each tile is computed in full by whichever worker picks
//    it up, so the result is independent of MERSIT_THREADS and of how
//    parallel_for chunks the tile list.
//
//  * Safe nesting.  The tile loop runs on core::ThreadPool, whose nested
//    parallel regions execute inline — callers that already fan out (the
//    per-batch conv loop, the parallel PTQ evaluators) compose without
//    oversubscription.
//
// On top of the kernel sits the inference-runtime layer:
//
//  * Prepacked operands.  pack_a_matrix / pack_b_matrix run the kernel's
//    panel packing once for a frozen operand (layer weights); sgemm calls
//    that pass the resulting PackedMatrix skip the per-call pack entirely.
//    The packed panels are byte-identical to what the per-call path would
//    build, so prepacked results are bit-identical too.  Every inference
//    forward of a non-depthwise Conv2d/Linear serves its weights this way.
//
//  * Fused epilogues.  An Epilogue applies an elementwise activation
//    inside the micro-kernel's final write-back, after the full k-summation
//    of each element — numerically indistinguishable from a separate
//    activation pass over the stored output, but without materializing the
//    pre-activation tensor.  A RowAffine slots in before the activation and
//    applies the per-row `scale[m]*v + shift[m]` that inference BatchNorm
//    reduces to — so conv -> BN -> act collapses into the GEMM write-back
//    with bit-identical results (no weight folding involved).
//
//  * Scratch arenas.  Per-call pack buffers come from the thread-local
//    core::ScratchArena instead of the heap, so steady-state inference
//    allocates nothing.
//
// set_enabled(false) routes every layer back to its naive reference loops;
// the equivalence tests and the benches' bitwise oracles compare the two
// paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/aligned.h"
#include "core/thread_pool.h"

namespace mersit::nn::gemm {

/// GEMM dispatch switch, process-wide and on by default; off routes the
/// layers to their naive reference loops (the bitwise oracle).
[[nodiscard]] bool enabled();

/// Programmatic override (tests, benches); returns the previous value.
bool set_enabled(bool on);

/// Retired: inference always serves weights from the prepack cache and
/// fuses conv+BN+activation.  Kept so callers that pin it on still build:
/// returns true, and throws std::invalid_argument when asked to disable.
bool set_prepack_enabled(bool on);

/// Retired: inference-only BN weight folding (MERSIT_FOLD_BN, no longer
/// read) was tolerance-equal only and never beat the bit-exact BN affine in
/// the GEMM write-back.  Kept so callers that pin it off still build:
/// returns false, and throws std::invalid_argument when asked to enable.
bool set_fold_bn_enabled(bool on);

/// What each C element starts from before the k-summation.
enum class Init {
  kZero,     ///< C = op(A)·op(B)
  kBiasRow,  ///< C[m,n] = bias[m] + ...   (conv: per-output-channel bias)
  kBiasCol,  ///< C[m,n] = bias[n] + ...   (linear: per-output-feature bias)
  kAccumulate,  ///< C += op(A)·op(B)      (gradient accumulation)
};

/// Elementwise function applied to each C element after its k-summation
/// completes, inside the final write-back.
enum class Epilogue {
  kNone,
  kReLU,       ///< conv/linear + ReLU fusion
  kReLU6,      ///< MobileNetV2-style clamp
  kSiLU,       ///< EfficientNet swish
  kHardSwish,  ///< MobileNetV3 h-swish
  kGELU,       ///< linear + GELU fusion (tanh approximation)
};

/// The scalar the fused write-back applies: the reference definition of
/// each fusable activation.  nn::act_eval delegates the matching Act kinds
/// here, so fused and unfused paths share one formula.  SiLU is
/// x * (1/(1 + exp_eval(-x))); GELU keeps std::tanh.
[[nodiscard]] float epilogue_eval(Epilogue e, float x);

/// The in-repo float exp (the only exp behind SiLU and sigmoid): branch-free
/// range clamp, magic-constant RNE, two-constant Cody-Waite reduction, a
/// fixed polynomial and an exponent-bit scale, with no fused multiply-add
/// and no float→int conversion.  Within 1 ULP of std::exp for every float
/// (exhaustively checked); +inf past 88.7228, +0 below -103.972, NaN stays
/// NaN.  Every backend evaluates the same formula lane-wise, bit-identically.
[[nodiscard]] float exp_eval(float x);

/// 1 / (1 + exp_eval(-x)): the SE gate, Act::kSigmoid and its gradient.
[[nodiscard]] float sigmoid_eval(float x);

/// Scalar affine stage of the elementwise entry, v = scale*v + shift (two
/// roundings), applied before the epilogue — one inference-BN channel plane.
struct ScalarAffine {
  float scale;
  float shift;
};

/// The elementwise entry: dst[i] = epilogue_eval(e, affine ? scale*src[i] +
/// shift : src[i]) for n elements, evaluated by the active backend's
/// Backend::elementwise (W lanes at a time in the SIMD backends).  Every
/// backend is bit-identical to epilogue_eval element by element for every
/// non-NaN result; NaN results stay NaN (their payload may differ).  src
/// may equal dst; other overlaps are not allowed.  Serves the GEMM
/// write-back, the Activation module, the BatchNorm2d inference pass and
/// the depthwise BN+activation pass.
void epilogue_apply(Epilogue e, const float* src, float* dst, std::size_t n,
                    const ScalarAffine* affine = nullptr);

/// The elementwise entry with a per-row affine: for r < rows, the `len`
/// floats at src + r·len map to dst + r·len as epilogue_apply with
/// ScalarAffine{scale[r], shift[r]} — bitwise identical to that loop of
/// calls, on every backend, in one dispatch.  Serves the BatchNorm2d
/// inference pass (rows = channels of one sample, len = h·w).
void epilogue_apply_rows(Epilogue e, const float* src, float* dst,
                         std::size_t rows, std::size_t len, const float* scale,
                         const float* shift);

/// Per-row affine stage of the fused write-back: v = scale[m]*v + shift[m],
/// applied after the k-summation and before the Epilogue activation.  This
/// is exactly the per-channel form inference BatchNorm evaluates (with
/// scale = gamma/sqrt(var+eps), shift = beta - mean*scale), so fusing it
/// reproduces the standalone BN pass bit for bit.  Rows of a conv GEMM are
/// output channels; callers offset the pointers per group.
struct RowAffine {
  const float* scale = nullptr;  ///< M entries
  const float* shift = nullptr;  ///< M entries
};

/// A GEMM operand packed once into the active backend's panel layout, for
/// reuse across many sgemm calls over frozen data (layer weights).
/// Produced by pack_a_matrix / pack_b_matrix; the fields are internal to
/// the engine — treat instances as opaque tokens.
///
/// The layout is self-describing: the tile geometry it was packed for
/// (mr/nr register tile, oc/kc cache blocks) and the owning backend's id
/// are recorded, and sgemm rejects a pack whose backend is not the active
/// one — panel layouts differ across tile geometries, so a foreign-layout
/// pack must never be consumed silently.  Panel storage is 64-byte aligned
/// (core::AlignedVector) and every block offset is rounded to a whole cache
/// line, so SIMD backends read panels with aligned loads; the rounding gaps
/// are zero-filled, keeping packs byte-comparable.
struct PackedMatrix {
  bool is_a = false;  ///< A-operand (mr-row panels) vs B (nr-col panels)
  int other = 0;      ///< M for an A-pack, N for a B-pack
  int k = 0;          ///< shared K extent
  int mr = 0;         ///< register-tile rows (A panels) of the packing backend
  int nr = 0;         ///< register-tile cols (B panels) of the packing backend
  int oc = 0;         ///< outer cache block: MC for an A-pack, NC for a B-pack
  int kc = 0;         ///< K cache block of the packing backend
  int backend_id = 0; ///< Backend::id this pack was built for
  core::AlignedVector<float> data;      ///< all blocks, contiguous, 64B-aligned
  std::vector<std::size_t> block_off;   ///< [outer_block * kblocks + kblock]

  [[nodiscard]] bool empty() const { return data.empty(); }
  /// Heap footprint (bench/monitoring).
  [[nodiscard]] std::size_t byte_size() const {
    return data.size() * sizeof(float);
  }
};

/// Pack op(A) (M x K; trans_a reads A[k*lda + m]) into the kernel's A-panel
/// layout — byte-identical to what the per-call path packs, block by block.
[[nodiscard]] PackedMatrix pack_a_matrix(int M, int K, const float* A, int lda,
                                         bool trans_a);
/// Pack op(B) (K x N; trans_b reads B[n*ldb + k]) into the B-panel layout.
[[nodiscard]] PackedMatrix pack_b_matrix(int K, int N, const float* B, int ldb,
                                         bool trans_b);

// Code-domain packing: the operand arrives as raw 8-bit code words plus a
// 256-entry decode LUT and per-channel scales, and each element decodes as
// float(lut[code] * scale) *inside* the panel pack — the pack step reads one
// byte per weight instead of four.  Element (m,k) of op(A) takes row scale
// scales[m]; element (k,n) of op(B) takes column scale scales[n] (rows of a
// conv A-operand and columns of a linear Bᵀ-operand are output channels).
// The result is byte-identical to pack_a_matrix / pack_b_matrix over the
// eagerly decoded float matrix: same blocks, same zero padding, and the same
// single double-multiply-then-float-cast per element.
[[nodiscard]] PackedMatrix pack_a_codes(int M, int K, const std::uint8_t* A,
                                        int lda, bool trans_a, const double* lut,
                                        const double* scales);
[[nodiscard]] PackedMatrix pack_b_codes(int K, int N, const std::uint8_t* B,
                                        int ldb, bool trans_b, const double* lut,
                                        const double* scales);

/// Eager decode of a channel-major code array: out[i] =
/// float(lut[codes[i]] * scales[i / per_channel]) — the exact expression the
/// code-domain packs evaluate per element, so a pack of `out` and a pack of
/// the codes are byte-identical.  Feeds the paths that need raw float
/// weights (depthwise/naive loops, the small-problem direct GEMM).
void decode_codes(const std::uint8_t* codes, std::size_t n, const double* lut,
                  const double* scales, std::size_t per_channel, float* out);

/// C (M x N, row-major, leading dim ldc) = epilogue(init + op(A)·op(B)).
///
/// op(A) is M x K: element (m,k) is A[m*lda + k], or A[k*lda + m] when
/// trans_a.  op(B) is K x N: element (k,n) is B[k*ldb + n], or B[n*ldb + k]
/// when trans_b.  `bias` must have M (kBiasRow) or N (kBiasCol) entries and
/// may be null otherwise.  `pool` defaults to the global pool; tests pass
/// their own to pin thread-count invariance.
///
/// `packed_a` / `packed_b`, when non-null, must have been produced by
/// pack_a_matrix / pack_b_matrix from the *same logical operand* (same
/// M/N/K and values); the kernel then skips that operand's per-call pack.
/// The raw pointers are still required — the small-problem direct path and
/// the shape validation read them.  Neither an epilogue nor an affine may
/// combine with Init::kAccumulate (the element sum would not be complete);
/// `affine`, when non-null, must carry both pointers with M entries each.
void sgemm(int M, int N, int K, const float* A, int lda, bool trans_a,
           const float* B, int ldb, bool trans_b, float* C, int ldc,
           Init init = Init::kZero, const float* bias = nullptr,
           core::ThreadPool* pool = nullptr,
           Epilogue epilogue = Epilogue::kNone,
           const PackedMatrix* packed_a = nullptr,
           const PackedMatrix* packed_b = nullptr,
           const RowAffine* affine = nullptr);

}  // namespace mersit::nn::gemm
