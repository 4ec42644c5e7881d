// Batch quantization kernel for one 8-bit format.
//
// The generic path (Format::quantize) costs two codec() acquisitions plus a
// std::lower_bound over a 16-byte-stride Entry array per scalar — fine for
// building tables, far too slow for the PTQ hot loops that push every weight
// and activation element through it.  Following the LUT-driven posit-codec
// designs of Murillo et al. ("Template-Based Posit Multiplication") and Deep
// Positron (see PAPERS.md), QuantKernel precomputes, once per format:
//
//  * the full 256-entry decode table and sign-symmetry (negate) table;
//  * the finite positive values as a dense ascending double array plus the
//    rounding midpoints between neighbours (slot 0 holds the underflow
//    boundary, so round-to-zero rides the same arrays);
//  * a bucketed boundary LUT keyed on the high bits (exponent + top mantissa
//    bits) of the positive double under encode.  Because IEEE doubles order
//    like their bit patterns, and the buckets are refined until each holds
//    at most one rounding boundary, one table word — that boundary, packed
//    with its index — and one compare pin the RNE answer down: no binary
//    search, no virtual dispatch;
//  * a per-boundary tie table: the candidate the even-code rule picks for a
//    magnitude exactly on each rounding midpoint.
//
// The element pick has no data-dependent branch at all: the bucket key
// clamps onto the table, one boundary compare picks the candidate, an exact
// tie selects its tie-table entry, and ±0/NaN select the zero value — every
// step is a select, so ReLU zeros and 50/50 signs cost no misprediction.
// Branch-free also means vectorizable: fake_quantize runs one lane per
// element on AVX-512 (8 doubles) or AVX2 (4 doubles), with two gathers per
// lane (boundary word, candidate value) in place of the table loads
// (fake_quant_variants() below).
//
// The kernel is immutable after construction and safe for concurrent use
// from any number of threads.  Scale is a per-call parameter: the tables are
// scale-independent (the scalar reference divides by `scale` before the
// search and multiplies after), so one kernel serves every channel scale —
// per-channel weights, RMSE and scale sweeps, where the scale changes from
// call to call.  Where the scale is fixed — an activation quant point —
// a QuantStage (quant_stage.h), built from this kernel's boundaries and
// tie rule, folds it into float thresholds and picks without gathers or
// double conversion; the gathers here are the cost of a per-call scale.
//
// Contract: every operation is bit-for-bit identical to the scalar reference
// path (fake_quantize_scalar / Format::quantize), including saturation,
// underflow, ties-to-even-code and NaN/±0/±inf handling, on every variant.
// tests/formats/test_kernels.cpp enforces this exhaustively for every
// registered format and every variant the host can execute.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "formats/format.h"

namespace mersit::formats::kernels {

/// Read-only view of the tables the element pick reads (owned by a
/// QuantKernel).  Every index the pick can form stays inside its table for
/// every input bit pattern, NaN and ±inf included — the vector variants
/// gather unmasked, so the constructor verifies the bounds.
struct LutView {
  /// Per bucket: the first rounding boundary at or above the bucket start,
  /// as double bits, with that boundary's index j (<= n) in the low byte.
  /// Boundaries have at most a dozen significant bits, so the low mantissa
  /// byte is free (the constructor verifies it).
  const std::uint64_t* bound;
  const double* cand_value;     ///< n + 1 candidate values (slot 0: zero)
  const std::uint32_t* tie;     ///< boundary j → tie winner slot (<= n)
  std::uint64_t shift;          ///< bucket key = bits(x) >> shift ...
  std::uint64_t key_base;       ///< ... - key_base, clamped to [0, key_top]
  std::uint64_t key_top;
  double zero_value;            ///< value of the zero code (keeps ±0 sign)
};

/// Low byte of a LutView::bound word: the boundary index.
inline constexpr std::uint64_t kBoundIndexMask = 0xff;

/// Candidate slot for a magnitude: slot 0 is the zero code, slot k+1 is
/// positive value k, and the slot is the number of rounding boundaries at
/// or below x.  Boundary j separates slots j and j+1; boundary 0 is the
/// underflow threshold (or -1, below every magnitude, when the format
/// clamps small magnitudes up) and boundary n is a NaN sentinel.  A bucket
/// holds at most one boundary, so if bound word j is the first boundary at
/// or above the bucket start, every earlier boundary is below x, every later
/// one above it, and the slot is j + (x >= boundary j).  Underflow and
/// saturation need no dedicated case: out-of-range keys clamp onto the end
/// buckets (the table spans the positive boundaries exactly), and ±inf
/// saturates the same way.  An exact midpoint (x == boundary j; a value hit
/// sits strictly between two boundaries) takes the tie table's even-code
/// winner.  ±0 and NaN produce an in-range slot the callers discard.
[[nodiscard]] inline std::size_t pick_index(const LutView& t, double x) {
  // Selects are spelled as mask arithmetic: written as ?: GCC turns the key
  // clamp and the tie/zero selects back into branches, which mispredict on
  // the zeros a ReLU emits.
  const auto mask = [](bool b) { return std::uint64_t{0} - b; };
  std::uint64_t key = std::bit_cast<std::uint64_t>(x) >> t.shift;
  key = (key - t.key_base) & mask(key > t.key_base);
  const std::uint64_t over = mask(key > t.key_top);
  key = (key & ~over) | (t.key_top & over);
  const std::uint64_t word = t.bound[key];
  const std::size_t j = word & kBoundIndexMask;
  const double m = std::bit_cast<double>(word & ~kBoundIndexMask);
  const std::size_t pick = j + static_cast<std::size_t>(x >= m);
  const std::uint64_t on_tie = mask(x == m);
  return (t.tie[j] & on_tie) | (pick & ~on_tie);
}

/// Quantized value of m (fmt.quantize(m), bit for bit).  The sign restore is
/// pure integer ALU: nonzero magnitudes take m's sign bit — exact, because
/// the QuantKernel constructor verifies the negate table is a bitwise sign
/// flip on every candidate code — while zero results keep the zero code's
/// own sign, exactly like the scalar negate table (zero codes are their own
/// negation).  `mag > 0` is false for ±0 and NaN, which select the zero
/// value.
[[nodiscard]] inline double quantize_value(const LutView& t, double m) {
  const auto mask = [](bool b) { return std::uint64_t{0} - b; };
  const double mag = std::fabs(m);
  const std::uint64_t qb =
      std::bit_cast<std::uint64_t>(t.cand_value[pick_index(t, mag)]);
  const std::uint64_t sign = std::bit_cast<std::uint64_t>(m) & (1ull << 63);
  const std::uint64_t r = qb ^ (sign & mask((qb << 1) != 0));
  const std::uint64_t positive = mask(mag > 0.0);
  return std::bit_cast<double>(
      (r & positive) |
      (std::bit_cast<std::uint64_t>(t.zero_value) & ~positive));
}

/// One fake-quantize loop: data[i] = float(quantize_value(double(data[i]) ·
/// (1/scale)) · scale) over n elements.
using FakeQuantFn = void (*)(const LutView& t, float* data, std::size_t n,
                             double scale);

/// One compiled-in implementation of the fake-quantize loop.  Immutable
/// statics with process lifetime.
struct FakeQuantVariant {
  const char* name;   ///< "avx512", "avx2" or "scalar"
  bool (*supported)();  ///< host can execute it (CPUID-backed, constant)
  FakeQuantFn run;
};

/// Compiled-in variants in dispatch order: widest first, scalar last (always
/// supported).  Tests and benches enumerate this; production code calls
/// QuantKernel::fake_quantize, which dispatches.
[[nodiscard]] std::span<const FakeQuantVariant> fake_quant_variants();

/// The variant QuantKernel::fake_quantize uses: the first supported entry of
/// fake_quant_variants(), chosen once per process from the host's features.
[[nodiscard]] const FakeQuantVariant& active_fake_quant_variant();

namespace detail {
// The loops behind the variants.  The scalar one is the reference, and the
// tail loop of the vector ones; the vector ones live in their own
// translation units compiled with -mavx512f / -mavx2 and must only run when
// their variant's supported() holds.
void fake_quantize_scalar(const LutView& t, float* data, std::size_t n,
                          double scale);
#if defined(__x86_64__) || defined(_M_X64)
void fake_quantize_avx512(const LutView& t, float* data, std::size_t n,
                          double scale);
void fake_quantize_avx2(const LutView& t, float* data, std::size_t n,
                        double scale);
#endif
}  // namespace detail

class QuantKernel {
 public:
  /// Builds every table from `fmt` (forces fmt.codec() once; the format
  /// object is not retained).
  explicit QuantKernel(const Format& fmt);
  // view_ points into this object's own tables.
  QuantKernel(const QuantKernel&) = delete;
  QuantKernel& operator=(const QuantKernel&) = delete;

  [[nodiscard]] const std::string& format_name() const { return name_; }

  /// Bit-identical to fmt.encode(x).  ±0 and NaN (`mag > 0` false) select
  /// the zero code; the sign selection compiles to a conditional move.
  [[nodiscard]] std::uint8_t encode(double x) const {
    const double mag = std::fabs(x);
    const std::uint8_t pos = cand_code_[pick_index(view_, mag)];
    const std::uint8_t neg = negate_[pos];
    const std::uint8_t code = x < 0.0 ? neg : pos;
    return mag > 0.0 ? code : zero_code_;
  }

  /// Bit-identical to fmt.decode_value(code) (as cached by TableCodec).
  [[nodiscard]] double decode(std::uint8_t code) const { return values_[code]; }

  /// Bit-identical to fmt.quantize(x).
  [[nodiscard]] double quantize(double x) const { return values_[encode(x)]; }

  /// Value-direct twin of quantize(): skips the code/negate table hops the
  /// batch loops don't need (one candidate-value load instead of three
  /// dependent byte-table loads).
  [[nodiscard]] double quantize_value(double m) const {
    return kernels::quantize_value(view_, m);
  }

  /// In-place batched fake quantization on the active variant; bit-identical
  /// to the scalar reference loop (fake_quantize_scalar).
  void fake_quantize(std::span<float> data, double scale) const {
    fake_quantize(active_fake_quant_variant(), data, scale);
  }

  /// fake_quantize on an explicit variant (which must be supported).
  void fake_quantize(const FakeQuantVariant& v, std::span<float> data,
                     double scale) const {
    v.run(view_, data.data(), data.size(), scale);
  }

  // What a QuantStage is built from.  Candidate slot k (k < slot_count())
  // is the zero code for k = 0 and the k-th smallest positive value after
  // it; boundary j (j < slot_count() - 1) separates slots j and j+1, and a
  // magnitude exactly on it picks slot j+1 iff tie_picks_upper(j).
  [[nodiscard]] std::size_t slot_count() const { return cand_value_.size(); }
  [[nodiscard]] double candidate_value(std::size_t k) const {
    return cand_value_[k];
  }
  [[nodiscard]] double boundary(std::size_t j) const { return mid_[j]; }
  [[nodiscard]] bool tie_picks_upper(std::size_t j) const {
    return tie_[j] == j + 1;
  }

  /// Batched RMSE between `data` and its fake-quantized image; identical
  /// accumulation order (hence bit-identical result) to the scalar path.
  [[nodiscard]] double quantization_rmse(std::span<const float> data,
                                         double scale) const;

 private:
  std::string name_;
  std::uint8_t zero_code_ = 0;
  double values_[256];
  std::uint8_t negate_[256];

  // Candidate slots: cand_code_[0] is the zero code, cand_code_[k+1] the
  // code of the k-th smallest positive value.  tie_[j] is the slot the
  // even-code rule picks for a magnitude exactly on boundary j (the tie
  // between slots j and j+1); tie_[n] is never selected — nothing equals
  // the NaN sentinel — and holds an in-range slot.
  std::vector<std::uint8_t> cand_code_;
  std::vector<double> cand_value_;  // values_[cand_code_[k]], same slots
  std::vector<std::uint32_t> tie_;
  // Rounding boundaries: mid_[j] separates slots j and j+1 (mid_[0] the
  // underflow boundary, or -1 when small magnitudes clamp up; mid_[n] a NaN
  // sentinel).
  std::vector<double> mid_;

  // Bucket LUT (LutView::bound): for positive x, key(x) = clamp((bits(x) >>
  // shift) - key_base, 0, key_top), spanning the positive boundaries.  The
  // shift starts at 46 (exponent + 6 mantissa bits per key) and the
  // constructor lowers it until every bucket holds at most one boundary —
  // the precondition for the one-compare pick.
  std::vector<std::uint64_t> bound_;

  LutView view_{};
};

}  // namespace mersit::formats::kernels
