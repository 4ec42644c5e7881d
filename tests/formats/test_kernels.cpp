// Exhaustive bit-for-bit equivalence of the LUT batch kernels and the
// fixed-scale quant stages against the
// scalar reference path (Format::encode / Format::quantize /
// fake_quantize_scalar), for every registered format.  The probe set leans
// on the adversarial corners: exact decoded values, exact rounding midpoints
// (the ties-to-even-code rule), their nextafter neighbours, the underflow
// boundary, the saturation boundary, ±0, double denormals, NaN and ±inf —
// plus a large random sweep.  The KernelVariants tests then hold every
// fake-quantize variant this host can execute (not just the dispatched one)
// to the same reference, element for element, including the tails and
// unaligned starts the vector loops hand to their scalar remainder.  The
// StageVariants tests do the same for every quant-stage variant, at the
// power-of-two scales (every midpoint a float can hold is an exact tie) and
// at non-power-of-two ones.
#include "formats/kernels/quant_kernel.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "formats/kernels/kernel_cache.h"
#include "formats/kernels/quant_stage.h"
#include "formats/quantize.h"

namespace mersit::formats::kernels {
namespace {

/// Adversarial double probes in the format's (pre-scale) value space.
std::vector<double> double_probes(const Format& fmt) {
  const TableCodec& codec = fmt.codec();
  std::vector<double> probes = {
      0.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1e300,
      -1e300,
      1e-300,
  };
  const auto push_signed = [&probes](double v) {
    probes.push_back(v);
    probes.push_back(-v);
  };
  const auto& pos = codec.positives();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const double v = pos[i].value;
    push_signed(v);
    push_signed(std::nextafter(v, 0.0));
    push_signed(std::nextafter(v, std::numeric_limits<double>::infinity()));
    if (i > 0) {
      // The exact midpoint expression the scalar path evaluates — this is
      // the ties-to-even-code branch.
      const double mid = 0.5 * (pos[i - 1].value + pos[i].value);
      push_signed(mid);
      push_signed(std::nextafter(mid, 0.0));
      push_signed(std::nextafter(mid, std::numeric_limits<double>::infinity()));
    }
  }
  // Underflow boundary (round-to-zero vs clamp-to-min) and saturation edge.
  const double min_pos = codec.min_positive();
  const double max_fin = codec.max_finite();
  push_signed(min_pos * 0.5);
  push_signed(std::nextafter(min_pos * 0.5, 0.0));
  push_signed(std::nextafter(min_pos * 0.5, 1.0));
  push_signed(min_pos * 0.25);
  push_signed(std::nextafter(max_fin, std::numeric_limits<double>::infinity()));
  push_signed(max_fin * 2.0);
  // Random sweep across many octaves.
  std::mt19937_64 rng(17);
  std::normal_distribution<double> normal(0.0, 1.0);
  std::uniform_real_distribution<double> octave(-20.0, 20.0);
  for (int i = 0; i < 10000; ++i)
    probes.push_back(normal(rng) * std::exp2(octave(rng)));
  return probes;
}

/// Mixed float buffer with the edge cases embedded, for the batch paths.
std::vector<float> float_probes(const Format& fmt, double scale) {
  const TableCodec& codec = fmt.codec();
  std::vector<float> buf = {
      0.f,
      -0.f,
      std::numeric_limits<float>::quiet_NaN(),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      static_cast<float>(codec.max_finite() * scale),
      static_cast<float>(-codec.max_finite() * scale),
      static_cast<float>(codec.max_finite() * scale * 4.0),
      static_cast<float>(codec.min_positive() * scale),
      static_cast<float>(codec.min_positive() * scale * 0.5),
      static_cast<float>(-codec.min_positive() * scale * 0.5),
  };
  std::mt19937 rng(23);
  std::normal_distribution<float> normal(0.f, 1.f);
  std::uniform_real_distribution<float> octave(-12.f, 12.f);
  for (int i = 0; i < 10000; ++i)
    buf.push_back(normal(rng) * std::exp2(octave(rng)) *
                  static_cast<float>(scale));
  return buf;
}

const std::vector<double> kScales = {1.0, 0.25, 7.5, 1e-3, 64.0};

TEST(KernelEquivalence, DecodeTableMatchesCodec) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = kernel_for(*fmt);
    for (int c = 0; c < 256; ++c) {
      const double a = kernel->decode(static_cast<std::uint8_t>(c));
      const double b = fmt->codec().decode(static_cast<std::uint8_t>(c));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
          << name << " code " << c;
    }
  }
}

TEST(KernelEquivalence, EncodeMatchesFormatOnAdversarialProbes) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = kernel_for(*fmt);
    for (const double x : double_probes(*fmt)) {
      EXPECT_EQ(kernel->encode(x), fmt->encode(x))
          << name << " x=" << std::hexfloat << x;
    }
  }
}

TEST(KernelEquivalence, QuantizeMatchesFormatBitForBit) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = kernel_for(*fmt);
    for (const double x : double_probes(*fmt)) {
      const double a = kernel->quantize(x);
      const double b = fmt->quantize(x);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
          << name << " x=" << std::hexfloat << x;
      // The value-direct batch path must agree with the code path exactly.
      const double c = kernel->quantize_value(x);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c), std::bit_cast<std::uint64_t>(a))
          << name << " x=" << std::hexfloat << x;
    }
  }
}

TEST(KernelEquivalence, BatchFakeQuantizeMatchesScalarReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    for (const double scale : kScales) {
      const std::vector<float> buf = float_probes(*fmt, scale);
      std::vector<float> kernel_out = buf;
      std::vector<float> scalar_out = buf;
      fake_quantize(kernel_out, *fmt, scale);
      fake_quantize_scalar(scalar_out, *fmt, scale);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(kernel_out[i]),
                  std::bit_cast<std::uint32_t>(scalar_out[i]))
            << name << " scale=" << scale << " i=" << i
            << " in=" << std::hexfloat << buf[i];
      }
    }
  }
}

TEST(KernelEquivalence, BatchRmseMatchesScalarReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    for (const double scale : kScales) {
      // Drop the NaN/inf probes: RMSE over them is NaN on both paths, which
      // compares unequal to itself; the accumulation-order equivalence is
      // what this test pins down.
      std::vector<float> buf;
      for (const float v : float_probes(*fmt, scale))
        if (std::isfinite(v)) buf.push_back(v);
      const double a = quantization_rmse(buf, *fmt, scale);
      const double b = quantization_rmse_scalar(buf, *fmt, scale);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
          << name << " scale=" << scale;
    }
  }
}

// ------------------------------------------------------------ variants --

/// Every variant this host can execute, the dispatched one included.
std::vector<const FakeQuantVariant*> runnable_variants() {
  std::vector<const FakeQuantVariant*> out;
  for (const FakeQuantVariant& v : fake_quant_variants())
    if (v.supported()) out.push_back(&v);
  return out;
}

/// Runs `v` over `in` and expects every output float bit-identical to
/// fake_quantize_scalar (the Format::quantize reference).
void expect_variant_matches_reference(const FakeQuantVariant& v,
                                      const Format& fmt,
                                      const std::vector<float>& in,
                                      double scale) {
  std::vector<float> got = in;
  std::vector<float> want = in;
  kernel_for(fmt)->fake_quantize(v, got, scale);
  fake_quantize_scalar(want, fmt, scale);
  int reported = 0;
  for (std::size_t i = 0; i < in.size() && reported < 8; ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) ==
        std::bit_cast<std::uint32_t>(want[i]))
      continue;
    ++reported;
    ADD_FAILURE() << v.name << " " << fmt.name() << " scale=" << scale
                  << " in=" << std::hexfloat << in[i] << " (0x" << std::hex
                  << std::bit_cast<std::uint32_t>(in[i]) << ") got 0x"
                  << std::bit_cast<std::uint32_t>(got[i]) << " want 0x"
                  << std::bit_cast<std::uint32_t>(want[i]);
  }
}

/// `v` and its negation, and the 16 float ULPs on either side of both.
void push_signed_ulps(std::vector<float>& out, float v) {
  for (const float s : {v, -v}) {
    out.push_back(s);
    float up = s, down = s;
    for (int k = 0; k < 16; ++k) {
      up = std::nextafter(up, std::numeric_limits<float>::infinity());
      down = std::nextafter(down, -std::numeric_limits<float>::infinity());
      out.push_back(up);
      out.push_back(down);
    }
  }
}

/// Non-finite, zero, denormal and saturation-edge inputs in the scaled
/// (float) domain.
std::vector<float> special_floats(const Format& fmt, double scale) {
  using lim = std::numeric_limits<float>;
  std::vector<float> out = {
      0.f, -0.f, lim::quiet_NaN(), -lim::quiet_NaN(), lim::signaling_NaN(),
      std::bit_cast<float>(0x7f800001u), std::bit_cast<float>(0xffffffffu),
      lim::infinity(), -lim::infinity(), lim::max(), -lim::max(),
      lim::min(), -lim::min(), lim::denorm_min(), -lim::denorm_min(),
      std::bit_cast<float>(0x007fffffu), std::bit_cast<float>(0x807fffffu),
      std::bit_cast<float>(0x00400000u), std::bit_cast<float>(0x80000123u)};
  const TableCodec& codec = fmt.codec();
  push_signed_ulps(out, static_cast<float>(codec.max_finite() * scale));
  push_signed_ulps(out, static_cast<float>(codec.max_finite() * scale * 2.0));
  push_signed_ulps(out, static_cast<float>(codec.min_positive() * scale));
  push_signed_ulps(out,
                   static_cast<float>(codec.min_positive() * scale * 0.5));
  return out;
}

TEST(KernelVariants, ScalarIsLastAndDispatchPicksFirstSupported) {
  const std::span<const FakeQuantVariant> all = fake_quant_variants();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.back().name, "scalar");
  EXPECT_TRUE(all.back().supported());
  EXPECT_EQ(&active_fake_quant_variant(), runnable_variants().front());
}

TEST(KernelVariants, AllDecodedValuesMatchReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    for (const double scale : kScales) {
      std::vector<float> in;
      for (int c = 0; c < 256; ++c)
        in.push_back(static_cast<float>(
            fmt->codec().decode(static_cast<std::uint8_t>(c)) * scale));
      for (const FakeQuantVariant* v : runnable_variants())
        expect_variant_matches_reference(*v, *fmt, in, scale);
    }
  }
}

TEST(KernelVariants, EveryBoundaryPlusMinus16UlpMatchesReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto& pos = fmt->codec().positives();
    for (const double scale : kScales) {
      std::vector<float> in;
      push_signed_ulps(in, static_cast<float>(pos.front().value * 0.5 * scale));
      for (std::size_t i = 1; i < pos.size(); ++i)
        push_signed_ulps(
            in, static_cast<float>(0.5 * (pos[i - 1].value + pos[i].value) *
                                   scale));
      for (const FakeQuantVariant* v : runnable_variants())
        expect_variant_matches_reference(*v, *fmt, in, scale);
    }
  }
}

TEST(KernelVariants, SpecialValuesMatchReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    for (const double scale : kScales) {
      const std::vector<float> in = special_floats(*fmt, scale);
      for (const FakeQuantVariant* v : runnable_variants())
        expect_variant_matches_reference(*v, *fmt, in, scale);
    }
  }
}

TEST(KernelVariants, TailsAndUnalignedStartsMatchReference) {
  constexpr std::size_t kMaxLen = 17;
  constexpr std::size_t kMaxOffset = 7;
  const float sentinel = std::bit_cast<float>(0x7fc0beefu);
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto kernel = kernel_for(*fmt);
    const double scale = 0.25;
    // Probe stream mixing random data with the special values, so every
    // lane position of every tail sees some of each.
    std::vector<float> probes = special_floats(*fmt, scale);
    const std::vector<float> random = float_probes(*fmt, scale);
    probes.insert(probes.end(), random.begin(), random.begin() + 200);
    for (const FakeQuantVariant* v : runnable_variants()) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        for (std::size_t off = 0; off <= kMaxOffset; ++off) {
          for (std::size_t at = 0; at + len <= probes.size(); at += 37) {
            // [sentinel x off][len inputs][sentinel x 8]
            const auto first =
                probes.begin() + static_cast<std::ptrdiff_t>(at);
            std::vector<float> buf(off + len + 8, sentinel);
            std::copy_n(first, len,
                        buf.begin() + static_cast<std::ptrdiff_t>(off));
            std::vector<float> want(first,
                                    first + static_cast<std::ptrdiff_t>(len));
            fake_quantize_scalar(want, *fmt, scale);
            kernel->fake_quantize(*v, std::span<float>(buf.data() + off, len),
                                  scale);
            for (std::size_t i = 0; i < buf.size(); ++i) {
              const bool inside = i >= off && i < off + len;
              const float expect = inside ? want[i - off] : sentinel;
              ASSERT_EQ(std::bit_cast<std::uint32_t>(buf[i]),
                        std::bit_cast<std::uint32_t>(expect))
                  << v->name << " " << name << " len=" << len
                  << " off=" << off << " at=" << at << " i=" << i
                  << (inside ? "" : " (outside the span: must be untouched)");
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------ quant stages --

/// The kernel tests' scales plus non-power-of-two ones.
const std::vector<double> kStageScales = {1.0, 0.25, 7.5, 1e-3, 64.0, 0.37,
                                          3.3, 1.0 / 127.0};

std::vector<const QuantStageVariant*> runnable_stage_variants() {
  std::vector<const QuantStageVariant*> out;
  for (const QuantStageVariant& v : quant_stage_variants())
    if (v.supported()) out.push_back(&v);
  return out;
}

/// Runs `v` over `in` on a stage of `fmt` at `scale` and expects every
/// output float bit-identical to fake_quantize_scalar.
void expect_stage_matches_reference(const QuantStageVariant& v,
                                    const Format& fmt,
                                    const std::vector<float>& in,
                                    double scale) {
  const QuantStage stage(*kernel_for(fmt), scale);
  std::vector<float> got = in;
  std::vector<float> want = in;
  stage.apply(v, got);
  fake_quantize_scalar(want, fmt, scale);
  int reported = 0;
  for (std::size_t i = 0; i < in.size() && reported < 8; ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) ==
        std::bit_cast<std::uint32_t>(want[i]))
      continue;
    ++reported;
    ADD_FAILURE() << "stage " << v.name << " " << fmt.name()
                  << " scale=" << scale << " in=" << std::hexfloat << in[i]
                  << " (0x" << std::hex << std::bit_cast<std::uint32_t>(in[i])
                  << ") got 0x" << std::bit_cast<std::uint32_t>(got[i])
                  << " want 0x" << std::bit_cast<std::uint32_t>(want[i]);
  }
}

TEST(StageVariants, ScalarIsLastAndDispatchPicksFirstSupported) {
  const std::span<const QuantStageVariant> all = quant_stage_variants();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all.back().name, "scalar");
  EXPECT_TRUE(all.back().supported());
  EXPECT_EQ(&active_quant_stage_variant(), runnable_stage_variants().front());
}

// The tree is a binary search tree over the sorted thresholds: an in-order
// walk reads them ascending, the reachable ones first and the NaN tail
// last, and the root splits them in half.
TEST(StageVariants, TreeInOrderIsSortedThresholds) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const QuantStage stage(*kernel_for(*fmt), 0.37);
    const StageTables& t = stage.tables();
    std::vector<float> in_order;
    const auto walk = [&](auto&& self, std::size_t node) -> void {
      if (node >= 128) return;
      self(self, 2 * node);
      in_order.push_back(t.tree[node]);
      self(self, 2 * node + 1);
    };
    walk(walk, 1);
    ASSERT_EQ(in_order.size(), 127u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(t.tree[1]),
              std::bit_cast<std::uint32_t>(in_order[63]));
    const std::size_t n = fmt->codec().positives().size();
    for (std::size_t j = 0; j < 127; ++j) {
      if (j >= n) {
        EXPECT_TRUE(std::isnan(in_order[j])) << name << " j=" << j;
        continue;
      }
      EXPECT_GT(in_order[j], 0.f) << name << " j=" << j;
      if (j > 0) {
        EXPECT_GE(in_order[j], in_order[j - 1]) << name << " j=" << j;
      }
    }
  }
}

TEST(StageVariants, AllDecodedValuesMatchReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    for (const double scale : kStageScales) {
      std::vector<float> in;
      for (int c = 0; c < 256; ++c)
        in.push_back(static_cast<float>(
            fmt->codec().decode(static_cast<std::uint8_t>(c)) * scale));
      for (const QuantStageVariant* v : runnable_stage_variants())
        expect_stage_matches_reference(*v, *fmt, in, scale);
    }
  }
}

TEST(StageVariants, EveryBoundaryPlusMinus16UlpMatchesReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const auto& pos = fmt->codec().positives();
    for (const double scale : kStageScales) {
      std::vector<float> in;
      push_signed_ulps(in, static_cast<float>(pos.front().value * 0.5 * scale));
      for (std::size_t i = 1; i < pos.size(); ++i)
        push_signed_ulps(
            in, static_cast<float>(0.5 * (pos[i - 1].value + pos[i].value) *
                                   scale));
      for (const QuantStageVariant* v : runnable_stage_variants())
        expect_stage_matches_reference(*v, *fmt, in, scale);
    }
  }
}

TEST(StageVariants, SpecialAndRandomValuesMatchReference) {
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    for (const double scale : kStageScales) {
      std::vector<float> in = special_floats(*fmt, scale);
      const std::vector<float> random = float_probes(*fmt, scale);
      in.insert(in.end(), random.begin(), random.end());
      for (const QuantStageVariant* v : runnable_stage_variants())
        expect_stage_matches_reference(*v, *fmt, in, scale);
    }
  }
}

// Scales no calibration produces on finite data, but a NaN or infinite
// |max| would: the stage still reproduces the reference (NaN everywhere, or
// every magnitude on one slot).
TEST(StageVariants, DegenerateScalesMatchReference) {
  using lim = std::numeric_limits<double>;
  for (const char* name : {"MERSIT(8,2)", "INT8", "Posit(8,1)", "FP(8,4)"}) {
    const auto fmt = core::make_format(name);
    for (const double scale : {lim::infinity(), lim::quiet_NaN(), 0.0,
                               lim::denorm_min(), 1e300, 1e-300}) {
      const std::vector<float> in = special_floats(*fmt, 1.0);
      for (const QuantStageVariant* v : runnable_stage_variants())
        expect_stage_matches_reference(*v, *fmt, in, scale);
    }
  }
  const auto fmt = core::make_format("MERSIT(8,2)");
  EXPECT_THROW(QuantStage(*kernel_for(*fmt), -1.0), std::invalid_argument);
  EXPECT_THROW(QuantStage(*kernel_for(*fmt), -0.0), std::invalid_argument);
}

TEST(StageVariants, TailsAndUnalignedStartsMatchReference) {
  constexpr std::size_t kMaxLen = 33;  // two AVX-512 blocks and a tail
  constexpr std::size_t kMaxOffset = 15;
  const float sentinel = std::bit_cast<float>(0x7fc0beefu);
  for (const auto& name : core::all_format_names()) {
    const auto fmt = core::make_format(name);
    const double scale = 0.37;
    const QuantStage stage(*kernel_for(*fmt), scale);
    std::vector<float> probes = special_floats(*fmt, scale);
    const std::vector<float> random = float_probes(*fmt, scale);
    probes.insert(probes.end(), random.begin(), random.begin() + 200);
    for (const QuantStageVariant* v : runnable_stage_variants()) {
      for (std::size_t len = 0; len <= kMaxLen; ++len) {
        for (std::size_t off = 0; off <= kMaxOffset; off += 3) {
          for (std::size_t at = 0; at + len <= probes.size(); at += 53) {
            // [sentinel x off][len inputs][sentinel x 16]
            const auto first =
                probes.begin() + static_cast<std::ptrdiff_t>(at);
            std::vector<float> buf(off + len + 16, sentinel);
            std::copy_n(first, len,
                        buf.begin() + static_cast<std::ptrdiff_t>(off));
            std::vector<float> want(first,
                                    first + static_cast<std::ptrdiff_t>(len));
            fake_quantize_scalar(want, *fmt, scale);
            stage.apply(*v, std::span<float>(buf.data() + off, len));
            for (std::size_t i = 0; i < buf.size(); ++i) {
              const bool inside = i >= off && i < off + len;
              const float expect = inside ? want[i - off] : sentinel;
              ASSERT_EQ(std::bit_cast<std::uint32_t>(buf[i]),
                        std::bit_cast<std::uint32_t>(expect))
                  << v->name << " " << name << " len=" << len
                  << " off=" << off << " at=" << at << " i=" << i
                  << (inside ? "" : " (outside the span: must be untouched)");
            }
          }
        }
      }
    }
  }
}

TEST(KernelCache, ReturnsSameInstanceAndClearResets) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const auto a = kernel_for(*fmt);
  const auto b = kernel_for(*fmt);
  EXPECT_EQ(a.get(), b.get());
  clear_kernel_cache();
  const auto c = kernel_for(*fmt);
  EXPECT_NE(a.get(), c.get());
  // Old handles stay valid after a clear (shared ownership).
  EXPECT_EQ(a->format_name(), c->format_name());
}

}  // namespace
}  // namespace mersit::formats::kernels
