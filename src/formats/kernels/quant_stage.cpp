#include "formats/kernels/quant_stage.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/cpu.h"

namespace mersit::formats::kernels {

namespace {

bool always() { return true; }
#if defined(__x86_64__) || defined(_M_X64)
bool has_avx512f() { return core::cpu_features().avx512f; }
bool has_avx2() { return core::cpu_features().avx2; }
#endif

// Dispatch order: widest first, scalar (always supported) last; the
// predicates live in this baseline-flags TU, like fake_quant_variants().
const QuantStageVariant kVariants[] = {
#if defined(__x86_64__) || defined(_M_X64)
    {"avx512", has_avx512f, detail::quant_stage_avx512},
    {"avx2", has_avx2, detail::quant_stage_avx2},
#endif
    {"scalar", always, detail::quant_stage_scalar},
};

constexpr std::uint32_t kInfBits = 0x7f800000u;

}  // namespace

std::span<const QuantStageVariant> quant_stage_variants() {
  return {kVariants, std::size(kVariants)};
}

const QuantStageVariant& active_quant_stage_variant() {
  static const QuantStageVariant& active = []() -> const QuantStageVariant& {
    for (const QuantStageVariant& v : kVariants)
      if (v.supported()) return v;
    return kVariants[std::size(kVariants) - 1];
  }();
  return active;
}

namespace detail {

void quant_stage_scalar(const StageTables& s, float* data, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) data[i] = stage_pick(s, data[i]);
}

}  // namespace detail

QuantStage::QuantStage(const QuantKernel& kernel, double scale)
    : scale_(scale) {
  // A negative scale flips the sign of double(x)·(1/scale), which the
  // magnitude-only pick below does not model.
  if (std::signbit(scale) && !std::isnan(scale))
    throw std::invalid_argument("QuantStage: negative scale");
  const std::size_t n = kernel.slot_count() - 1;  // positive values
  if (n == 0 || n > 127)
    throw std::logic_error("QuantStage: " + kernel.format_name() +
                           " needs 1..127 positive values, has " +
                           std::to_string(n));
  const double inv = 1.0 / scale;

  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  float sorted[127];
  std::fill(std::begin(sorted), std::end(sorted), kNaN);
  // Every pattern below `lo` fails the current boundary: +0 fails them all,
  // and threshold j is never below threshold j-1.
  std::uint32_t lo = 1;
  for (std::size_t j = 0; j < n; ++j) {
    // The kernel's pick passes boundary j iff m = double(x)·(1/scale) lies
    // above it, or on it with the tie going up; m must be positive (zero
    // and NaN select the zero code).  Monotone in the pattern of x >= 0.
    const double b = kernel.boundary(j);
    const bool up = kernel.tie_picks_upper(j);
    const auto passes = [&](std::uint32_t bits) {
      const double m = static_cast<double>(std::bit_cast<float>(bits)) * inv;
      return (m > 0.0) & ((m > b) | ((m == b) & up));
    };
    if (!passes(kInfBits)) break;  // no input passes it, nor any later one
    // Guess: the boundary mapped back through the scale, clamped to the
    // finite positive patterns.  It is the answer or one pattern below it
    // unless the format clamps small magnitudes up (boundary -1).
    const float g = static_cast<float>(b * scale);
    std::uint32_t guess = g > 0.f ? std::bit_cast<std::uint32_t>(g) : 1;
    guess = std::min(guess, kInfBits - 1);
    // Three picks that depend on neither `lo` nor each other settle the
    // usual case, so the picks of successive thresholds overlap.
    const bool before = passes(guess - 1), at = passes(guess),
               after = passes(guess + 1);
    if (!before & after) {
      lo = guess + !at;
      sorted[j] = std::bit_cast<float>(lo);
      continue;
    }
    // Otherwise (a scale far from any calibration, e.g. 1e-300) bisect
    // (below, hi]: every pattern <= below fails, hi passes.
    std::uint32_t below = lo - 1, hi = kInfBits;
    while (hi - below > 1) {
      const std::uint32_t mid_bits = below + (hi - below) / 2;
      (passes(mid_bits) ? hi : below) = mid_bits;
    }
    sorted[j] = std::bit_cast<float>(hi);
    lo = hi;
  }

  // Level L probes sorted threshold (64 >> L) - 1 + p·(128 >> L) at node
  // 2^L + p, for each prefix p of the slot's top L bits.
  t_.tree[0] = kNaN;
  for (std::size_t level = 0; level < kStageLevels; ++level) {
    const std::size_t first = 1u << level, stride = 128u >> level;
    for (std::size_t p = 0; p < first; ++p)
      t_.tree[first + p] = sorted[stride / 2 - 1 + p * stride];
  }
  for (std::size_t k = 0; k < 128; ++k)
    t_.out[k] =
        static_cast<float>(kernel.candidate_value(std::min(k, n)) * scale);
}

}  // namespace mersit::formats::kernels
