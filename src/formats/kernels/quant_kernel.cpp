#include "formats/kernels/quant_kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "core/cpu.h"

namespace mersit::formats::kernels {

namespace {

bool always() { return true; }
#if defined(__x86_64__) || defined(_M_X64)
bool has_avx512f() { return core::cpu_features().avx512f; }
bool has_avx2() { return core::cpu_features().avx2; }
#endif

// Dispatch order: widest first, scalar (always supported) last.  The
// predicates live here, in a baseline-flags TU, so no -m flag of a vector TU
// can leak into the code that decides whether it may run.
const FakeQuantVariant kVariants[] = {
#if defined(__x86_64__) || defined(_M_X64)
    {"avx512", has_avx512f, detail::fake_quantize_avx512},
    {"avx2", has_avx2, detail::fake_quantize_avx2},
#endif
    {"scalar", always, detail::fake_quantize_scalar},
};

}  // namespace

std::span<const FakeQuantVariant> fake_quant_variants() {
  return {kVariants, std::size(kVariants)};
}

const FakeQuantVariant& active_fake_quant_variant() {
  static const FakeQuantVariant& active = []() -> const FakeQuantVariant& {
    for (const FakeQuantVariant& v : kVariants)
      if (v.supported()) return v;
    return kVariants[std::size(kVariants) - 1];
  }();
  return active;
}

namespace detail {

void fake_quantize_scalar(const LutView& t, float* data, std::size_t n,
                          double scale) {
  const double inv = 1.0 / scale;
  for (std::size_t i = 0; i < n; ++i) {
    const double q = quantize_value(t, static_cast<double>(data[i]) * inv);
    data[i] = static_cast<float>(q * scale);
  }
}

}  // namespace detail

QuantKernel::QuantKernel(const Format& fmt) : name_(fmt.name()) {
  const TableCodec& codec = fmt.codec();
  zero_code_ = codec.zero_code();
  for (int c = 0; c < 256; ++c) {
    values_[c] = codec.decode(static_cast<std::uint8_t>(c));
    negate_[c] = codec.negate(static_cast<std::uint8_t>(c));
  }

  const std::vector<TableCodec::Entry>& pos = codec.positives();
  const std::size_t n = pos.size();
  cand_code_.resize(n + 1);
  cand_value_.resize(n + 1);
  // Rounding boundaries: mid_[j] separates candidate slots j and j+1.
  // mid_[j] = 0.5 * (value j-1 + value j) for 1 <= j < n (the exact
  // expression the scalar reference evaluates, so an exact midpoint compares
  // identically here); mid_[0] is the underflow boundary — half the smallest
  // value when the format rounds small magnitudes to zero, or an
  // unreachable -1 when it clamps up (posit semantics) — and mid_[n] is a NaN
  // sentinel (compares false against everything, so the pick saturates at
  // the top value for any x from the largest value to +inf).
  mid_.assign(n + 1, 0.0);
  cand_code_[0] = zero_code_;
  cand_value_[0] = values_[zero_code_];
  for (std::size_t i = 0; i < n; ++i) {
    cand_code_[i + 1] = pos[i].code;
    cand_value_[i + 1] = values_[pos[i].code];
    if (i > 0) mid_[i] = 0.5 * (pos[i - 1].value + pos[i].value);
  }
  mid_[0] = fmt.underflows_to_zero() ? pos.front().value * 0.5 : -1.0;
  mid_[n] = std::numeric_limits<double>::quiet_NaN();

  // Ties go to the even code: at boundary 0 the smallest value wins when its
  // code is even, else zero; at boundary j >= 1, value j-1 (slot j) when its
  // code is even, else value j (slot j+1).
  tie_.resize(n + 1);
  tie_[0] = (pos.front().code & 1u) == 0 ? 1 : 0;
  for (std::size_t j = 1; j < n; ++j)
    tie_[j] = static_cast<std::uint32_t>((pos[j - 1].code & 1u) == 0 ? j
                                                                      : j + 1);
  tie_[n] = static_cast<std::uint32_t>(n);

  // quantize_value's integer sign restore assumes that, for every code the
  // encode path can emit (the candidate slots: zero code + positive codes),
  // the negate table is an exact bitwise sign flip for nonzero values and
  // the identity for zero codes; verify rather than assume, since every
  // batch path rides on it.  (Unreachable codes — e.g. INT8's -128, whose
  // negation saturates — are allowed to break the symmetry.)
  for (const std::uint8_t c : cand_code_) {
    const double v = values_[c];
    const double nv = values_[negate_[c]];
    const bool ok =
        v == 0.0
            ? std::bit_cast<std::uint64_t>(nv) == std::bit_cast<std::uint64_t>(v)
            : std::bit_cast<std::uint64_t>(nv) ==
                  (std::bit_cast<std::uint64_t>(v) ^ (1ull << 63));
    if (!ok)
      throw std::logic_error("QuantKernel: negate table of " + name_ +
                             " is not an exact sign flip");
  }

  // The bound words carry the boundary index in the low mantissa byte, so
  // every boundary must leave that byte clear (8-bit values have a handful
  // of significant bits; their midpoints one more) and every index must fit.
  if (n > kBoundIndexMask)
    throw std::logic_error("QuantKernel: too many values in " + name_);
  for (const double m : mid_)
    if ((std::bit_cast<std::uint64_t>(m) & kBoundIndexMask) != 0)
      throw std::logic_error("QuantKernel: a rounding boundary of " + name_ +
                             " uses the low mantissa byte");

  // Bucket LUT.  Positive finite doubles order like their bit patterns, so
  // bucket k covers the value interval [key_to_double(k), key_to_double(k+1))
  // and its word holds the first boundary >= its start.  The buckets span
  // the positive real boundaries (mid_[1..n-1], plus mid_[0] when it is the
  // underflow threshold) — below them every magnitude has passed only the
  // -1 sentinel, above them every real boundary.  Start at shift 46 (64
  // buckets per octave) and refine until every bucket holds at most one
  // boundary — the precondition for pick_index's one-compare pick.
  const std::size_t first_pos = mid_[0] > 0.0 ? 0 : 1;
  if (first_pos >= n)
    throw std::logic_error("QuantKernel: " + name_ +
                           " has no positive rounding boundary");
  const auto real_begin = mid_.begin();
  const auto real_end = mid_.begin() + static_cast<std::ptrdiff_t>(n);
  int shift = 46;
  std::uint64_t key_base = 0;
  for (;; --shift) {
    if (shift < 38)
      throw std::logic_error("QuantKernel: bucket refinement failed for " +
                             name_);
    const auto key_of = [shift](double v) {
      return std::bit_cast<std::uint64_t>(v) >> shift;
    };
    const auto bucket_start = [shift](std::uint64_t key) {
      return std::bit_cast<double>(key << shift);
    };
    key_base = key_of(mid_[first_pos]);
    const std::uint64_t key_max = key_of(mid_[n - 1]);
    const std::size_t buckets =
        static_cast<std::size_t>(key_max - key_base) + 1;
    bound_.assign(buckets, 0);
    std::size_t max_span = 0;
    for (std::size_t k = 0; k < buckets; ++k) {
      const double start = bucket_start(key_base + k);
      const double next = bucket_start(key_base + k + 1);
      const auto first = std::lower_bound(real_begin, real_end, start);
      const auto last = std::lower_bound(first, real_end, next);
      max_span = std::max(max_span, static_cast<std::size_t>(last - first));
      const auto j = static_cast<std::size_t>(first - real_begin);
      bound_[k] = std::bit_cast<std::uint64_t>(mid_[j]) | j;
    }
    if (max_span <= 1) break;
  }
  // The vector variants gather without masks: every slot the pick can form
  // (bound index + 1 at most, or a tie winner) must index cand_value_.
  // Holds by construction — every bucket starts at or below the top real
  // boundary, so no bound word carries the sentinel index n — and is
  // verified, because an out-of-range gather reads foreign memory silently.
  for (const std::uint64_t w : bound_)
    if ((w & kBoundIndexMask) >= n)
      throw std::logic_error("QuantKernel: bound index out of range for " +
                             name_);

  view_ = LutView{bound_.data(),
                  cand_value_.data(),
                  tie_.data(),
                  static_cast<std::uint64_t>(shift),
                  key_base,
                  static_cast<std::uint64_t>(bound_.size() - 1),
                  values_[zero_code_]};
}

double QuantKernel::quantization_rmse(std::span<const float> data,
                                      double scale) const {
  if (data.empty()) return 0.0;
  const double inv = 1.0 / scale;
  double se = 0.0;
  for (const float v : data) {
    const double q = quantize_value(static_cast<double>(v) * inv);
    const double d = q * scale - static_cast<double>(v);
    se += d * d;
  }
  return std::sqrt(se / static_cast<double>(data.size()));
}

}  // namespace mersit::formats::kernels
