// Exhaustive sweeps: every one of the 2^32 float bit patterns, bit-compared
// against the Format::quantize reference (fake_quantize_scalar), through
//  * every fake-quantize variant of the LUT kernel this host can execute,
//    for MERSIT(8,2) at scale 1 (a power of two, so every midpoint a float
//    can hold is an exact tie);
//  * every quant-stage variant this host can execute, for MERSIT(8,2),
//    INT8 and Posit(8,1) (which clamps small magnitudes up instead of
//    underflowing) at non-power-of-two scales, where the thresholds sit
//    between floats and the guess-and-step build has to find them.
//
// Calling the reference 2^32 times would take minutes, so it is evaluated
// once per output step instead.  Over each sign half of the float line the
// reference output is monotone in the input value — x · (1/scale) rounds
// monotonically and the nearest-value pick (ties to either neighbour) is
// monotone — so the patterns sharing one output form contiguous runs, found
// by binary search on the reference itself.  NaN patterns are their own
// ranges (one constant output).  A sample of patterns is additionally
// checked against the reference directly, so a step table that missed a
// non-monotone glitch of the reference would not go unnoticed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "formats/kernels/kernel_cache.h"
#include "formats/kernels/quant_kernel.h"
#include "formats/kernels/quant_stage.h"
#include "formats/quantize.h"

namespace mersit::formats::kernels {
namespace {

std::uint32_t reference_bits(const Format& fmt, double scale,
                             std::uint32_t bits) {
  float v = std::bit_cast<float>(bits);
  fake_quantize_scalar(std::span<float>(&v, 1), fmt, scale);
  return std::bit_cast<std::uint32_t>(v);
}

/// A run of patterns [first, next run's first) with one reference output.
struct Step {
  std::uint64_t first;
  std::uint32_t out;
};

/// Steps of the reference over the pattern range [lo, hi], on which the
/// reference is monotone in the input value.
std::vector<Step> reference_steps(const Format& fmt, double scale,
                                  std::uint64_t lo, std::uint64_t hi) {
  std::vector<Step> steps;
  std::uint64_t cur = lo;
  while (cur <= hi) {
    const std::uint32_t out =
        reference_bits(fmt, scale, static_cast<std::uint32_t>(cur));
    // Largest b in [cur, hi] with the same output.
    std::uint64_t a = cur, b = hi;
    while (a < b) {
      const std::uint64_t m = a + (b - a + 1) / 2;
      if (reference_bits(fmt, scale, static_cast<std::uint32_t>(m)) == out)
        a = m;
      else
        b = m - 1;
    }
    steps.push_back({cur, out});
    cur = a + 1;
  }
  return steps;
}

/// One implementation under test: fake-quantizes a block in place.
struct Runner {
  std::string name;
  std::function<void(std::span<float>)> run;
};

/// Pushes all 2^32 patterns through every runner and expects each output
/// bit-identical to fake_quantize_scalar(fmt, scale).
void sweep_all_patterns(const Format& fmt, double scale,
                        const std::vector<Runner>& runners) {
  // +0 .. +inf, +NaNs, -0 .. -inf, -NaNs.
  std::vector<Step> steps;
  for (const auto& [lo, hi] :
       {std::pair<std::uint64_t, std::uint64_t>{0x00000000u, 0x7f800000u},
        {0x7f800001u, 0x7fffffffu},
        {0x80000000u, 0xff800000u},
        {0xff800001u, 0xffffffffu}}) {
    const std::vector<Step> s = reference_steps(fmt, scale, lo, hi);
    steps.insert(steps.end(), s.begin(), s.end());
  }
  ASSERT_GT(steps.size(), 250u);  // every code of both signs shows up
  const auto expected = [&steps](std::uint64_t bits) {
    const auto it = std::upper_bound(
        steps.begin(), steps.end(), bits,
        [](std::uint64_t b, const Step& s) { return b < s.first; });
    return std::prev(it)->out;
  };

  // The step table against the reference on a random sample.
  std::mt19937 rng(41);
  for (int i = 0; i < 200000; ++i) {
    const std::uint32_t b = rng();
    ASSERT_EQ(expected(b), reference_bits(fmt, scale, b))
        << "reference not monotone near 0x" << std::hex << b;
  }

  // Blocks fan out over the pool; each block's expected output is built
  // once and every runner is compared against it.
  constexpr std::uint64_t kBlock = 1u << 16;
  constexpr std::uint64_t kBlocks = (1ull << 32) / kBlock;
  std::vector<std::atomic<std::uint64_t>> mismatches(runners.size());
  std::mutex mu;
  std::vector<std::string> first(runners.size());
  core::global_pool().parallel_chunks(kBlocks, [&](std::size_t begin,
                                                   std::size_t end) {
    std::vector<std::uint32_t> in(kBlock), want(kBlock);
    std::vector<float> got(kBlock);
    for (std::size_t blk = begin; blk < end; ++blk) {
      const std::uint64_t base = blk * kBlock;
      auto step = std::prev(std::upper_bound(
          steps.begin(), steps.end(), base,
          [](std::uint64_t b, const Step& s) { return b < s.first; }));
      for (std::uint64_t i = 0; i < kBlock; ++i) {
        const std::uint64_t bits = base + i;
        while (std::next(step) != steps.end() && std::next(step)->first <= bits)
          ++step;
        in[i] = static_cast<std::uint32_t>(bits);
        want[i] = step->out;
      }
      for (std::size_t ri = 0; ri < runners.size(); ++ri) {
        std::memcpy(got.data(), in.data(), kBlock * sizeof(float));
        runners[ri].run(got);
        if (std::memcmp(got.data(), want.data(), kBlock * sizeof(float)) == 0)
          continue;
        for (std::uint64_t i = 0; i < kBlock; ++i) {
          const std::uint32_t g = std::bit_cast<std::uint32_t>(got[i]);
          if (g == want[i]) continue;
          if (mismatches[ri].fetch_add(1) == 0) {
            std::ostringstream os;
            os << "input 0x" << std::hex << in[i] << " got 0x" << g
               << " want 0x" << want[i];
            const std::lock_guard<std::mutex> lock(mu);
            first[ri] = os.str();
          }
        }
      }
    }
  });
  for (std::size_t ri = 0; ri < runners.size(); ++ri)
    EXPECT_EQ(mismatches[ri].load(), 0u)
        << runners[ri].name << ", first mismatch: " << first[ri];
}

TEST(KernelSweep, AllFloatBitPatternsMersit82EveryVariant) {
  constexpr double kScale = 1.0;
  const auto fmt = core::make_format("MERSIT(8,2)");
  const auto kernel = kernel_for(*fmt);
  std::vector<Runner> runners;
  for (const FakeQuantVariant& v : fake_quant_variants())
    if (v.supported())
      runners.push_back({v.name, [&kernel, &v](std::span<float> b) {
                           kernel->fake_quantize(v, b, kScale);
                         }});
  sweep_all_patterns(*fmt, kScale, runners);
}

/// Every quant-stage variant of `name` at `scale` over all patterns.
void sweep_stage(const char* name, double scale) {
  const auto fmt = core::make_format(name);
  const QuantStage stage(*kernel_for(*fmt), scale);
  std::vector<Runner> runners;
  for (const QuantStageVariant& v : quant_stage_variants())
    if (v.supported())
      runners.push_back({std::string("stage ") + v.name,
                         [&stage, &v](std::span<float> b) {
                           stage.apply(v, b);
                         }});
  sweep_all_patterns(*fmt, scale, runners);
}

TEST(KernelSweep, StageAllFloatBitPatternsMersit82) {
  sweep_stage("MERSIT(8,2)", 0.37);
}

TEST(KernelSweep, StageAllFloatBitPatternsInt8) {
  // A calibrated |max| of 2.5 under kMaxToUnity: scale 2.5/127.
  sweep_stage("INT8", 2.5 / 127.0);
}

TEST(KernelSweep, StageAllFloatBitPatternsPosit81) {
  sweep_stage("Posit(8,1)", 3.3);
}

}  // namespace
}  // namespace mersit::formats::kernels
