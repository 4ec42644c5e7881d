// Fixed-scale fake-quantize stage: one per calibrated quant point.
//
// QuantKernel::fake_quantize takes the scale per call, so every element
// widens to double, multiplies by 1/scale and looks its pick up through two
// gathers (quant_kernel.h).  An activation quant point, though, always runs
// at the one scale its calibration fixed, and at a fixed scale the whole
// fake-quantize — float(quantize(double(x)·(1/scale))·scale) — is a step
// function of the float input: double(x)·(1/scale) rounds monotonically and
// the nearest-value pick is monotone, so over each sign half the output
// changes at most once per rounding boundary, at most 127 times for an
// 8-bit format.  A QuantStage precomputes, once per (format, scale):
//
//  * the thresholds.  τ_j is the smallest positive float whose reference
//    pick passes rounding boundary j (the candidate slot exceeds j).  An
//    exact tie is folded into its threshold on the side the even-code rule
//    picks, so no tie table survives.  Boundaries no finite input reaches
//    (and the unused tail) hold NaN, which compares false against
//    everything.  They are stored in level order — the implicit binary
//    search tree of a 128-slot array (tree[1] is the root, tree[2i] and
//    tree[2i+1] are the children of tree[i]; slot 0 is unused) — so each
//    search level reads one contiguous power-of-two block;
//  * the outputs.  out[k] = float(cand_k · scale) for candidate slot k
//    (slot 0 is the zero code, slot k the k-th smallest positive value).
//
// The element pick is then: a = |x|; i = 1; seven times i = 2i + (a >= τ);
// k = i - 128 (the number of thresholds at or below a); y = out[k] with x's
// sign bit ORed in when k > 0.  ±0 and NaN compare false everywhere and land
// on slot 0, whose output keeps the zero code's own sign, exactly as in the
// reference.  No double conversion and no tie branch; the AVX-512 variant
// holds both tables in registers and picks with permutes, no gathers.
//
// Contract: every variant is bit-for-bit identical to fake_quantize_scalar
// (Format::quantize) at the stage's scale, for every float input.
// tests/formats/test_kernels.cpp checks every variant the host can execute
// on crafted boundaries; tests/formats/test_kernel_sweep.cpp runs all 2^32
// float patterns.  A stage is immutable after construction and safe for
// concurrent use.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "formats/kernels/quant_kernel.h"

namespace mersit::formats::kernels {

/// The two tables a stage's element pick reads (see the header comment).
struct StageTables {
  /// Thresholds in level order: tree[1] is the root; the 2^L entries of
  /// search level L sit at [2^L, 2^(L+1)).  tree[0] is unused (NaN).
  alignas(64) float tree[128];
  /// out[k] = float(candidate slot k's value · scale); slots past the
  /// format's last value repeat it (unreachable).
  alignas(64) float out[128];
};

/// Search levels of the pick: 2^7 = 128 slots hold up to 127 thresholds.
inline constexpr int kStageLevels = 7;

/// One pick: the stage output for x (the scalar reference of the variants).
[[nodiscard]] inline float stage_pick(const StageTables& s, float x) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(x);
  const float a = std::bit_cast<float>(bits & 0x7fffffffu);
  std::uint32_t i = 1;
  for (int l = 0; l < kStageLevels; ++l)
    i = 2 * i + static_cast<std::uint32_t>(a >= s.tree[i]);
  const std::uint32_t k = i - 128;
  const std::uint32_t sign = (bits & 0x80000000u) & (0u - (k != 0));
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(s.out[k]) | sign);
}

/// One stage loop: data[i] = stage output for data[i], over n elements.
using QuantStageFn = void (*)(const StageTables& s, float* data,
                              std::size_t n);

/// One compiled-in implementation of the stage loop.  Immutable statics
/// with process lifetime.
struct QuantStageVariant {
  const char* name;     ///< "avx512", "avx2" or "scalar"
  bool (*supported)();  ///< host can execute it (CPUID-backed, constant)
  QuantStageFn run;
};

/// Compiled-in variants in dispatch order: widest first, scalar last
/// (always supported).  Tests and benches enumerate this; QuantStage::apply
/// dispatches.
[[nodiscard]] std::span<const QuantStageVariant> quant_stage_variants();

/// The first supported entry of quant_stage_variants(), chosen once per
/// process from the host's features.
[[nodiscard]] const QuantStageVariant& active_quant_stage_variant();

namespace detail {
// The loops behind the variants; the vector ones live in their own
// translation units compiled with -mavx512f / -mavx2 and must only run when
// their variant's supported() holds.
void quant_stage_scalar(const StageTables& s, float* data, std::size_t n);
#if defined(__x86_64__) || defined(_M_X64)
void quant_stage_avx512(const StageTables& s, float* data, std::size_t n);
void quant_stage_avx2(const StageTables& s, float* data, std::size_t n);
#endif
}  // namespace detail

class QuantStage {
 public:
  /// Builds the tables of `kernel`'s format at `scale`: any double without
  /// a sign bit (a NaN or +inf scale yields what the reference yields — NaN
  /// everywhere);
  /// a negative scale throws std::invalid_argument.  About a microsecond:
  /// each threshold starts from the guess float(boundary · scale) and steps
  /// a few ulps against the kernel's boundary and tie rule.
  QuantStage(const QuantKernel& kernel, double scale);

  [[nodiscard]] double scale() const { return scale_; }
  [[nodiscard]] const StageTables& tables() const { return t_; }

  /// In-place fake quantization on the active variant.
  void apply(std::span<float> data) const {
    apply(active_quant_stage_variant(), data);
  }
  /// apply on an explicit variant (which must be supported).
  void apply(const QuantStageVariant& v, std::span<float> data) const {
    v.run(t_, data.data(), data.size());
  }

 private:
  StageTables t_;
  double scale_;
};

}  // namespace mersit::formats::kernels
