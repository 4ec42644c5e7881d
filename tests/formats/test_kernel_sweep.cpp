// Exhaustive sweep: every one of the 2^32 float bit patterns through every
// fake-quantize variant this host can execute, for MERSIT(8,2) at scale 1
// (a power of two, so every midpoint a float can hold is an exact tie),
// bit-compared against the Format::quantize reference.
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
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/thread_pool.h"
#include "formats/kernels/kernel_cache.h"
#include "formats/kernels/quant_kernel.h"
#include "formats/quantize.h"

namespace mersit::formats::kernels {
namespace {

constexpr double kScale = 1.0;

std::uint32_t reference_bits(const Format& fmt, std::uint32_t bits) {
  float v = std::bit_cast<float>(bits);
  fake_quantize_scalar(std::span<float>(&v, 1), fmt, kScale);
  return std::bit_cast<std::uint32_t>(v);
}

/// A run of patterns [first, next run's first) with one reference output.
struct Step {
  std::uint64_t first;
  std::uint32_t out;
};

/// Steps of the reference over the pattern range [lo, hi], on which the
/// reference is monotone in the input value.
std::vector<Step> reference_steps(const Format& fmt, std::uint64_t lo,
                                  std::uint64_t hi) {
  std::vector<Step> steps;
  std::uint64_t cur = lo;
  while (cur <= hi) {
    const std::uint32_t out =
        reference_bits(fmt, static_cast<std::uint32_t>(cur));
    // Largest b in [cur, hi] with the same output.
    std::uint64_t a = cur, b = hi;
    while (a < b) {
      const std::uint64_t m = a + (b - a + 1) / 2;
      if (reference_bits(fmt, static_cast<std::uint32_t>(m)) == out)
        a = m;
      else
        b = m - 1;
    }
    steps.push_back({cur, out});
    cur = a + 1;
  }
  return steps;
}

TEST(KernelSweep, AllFloatBitPatternsMersit82EveryVariant) {
  const auto fmt = core::make_format("MERSIT(8,2)");
  const auto kernel = kernel_for(*fmt);

  // +0 .. +inf, +NaNs, -0 .. -inf, -NaNs.
  std::vector<Step> steps;
  for (const auto& [lo, hi] :
       {std::pair<std::uint64_t, std::uint64_t>{0x00000000u, 0x7f800000u},
        {0x7f800001u, 0x7fffffffu},
        {0x80000000u, 0xff800000u},
        {0xff800001u, 0xffffffffu}}) {
    const std::vector<Step> s = reference_steps(*fmt, lo, hi);
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
    ASSERT_EQ(expected(b), reference_bits(*fmt, b))
        << "reference not monotone near 0x" << std::hex << b;
  }

  std::vector<const FakeQuantVariant*> variants;
  for (const FakeQuantVariant& v : fake_quant_variants())
    if (v.supported()) variants.push_back(&v);

  // Blocks fan out over the pool; each block's expected output is built
  // once and every variant is compared against it.
  constexpr std::uint64_t kBlock = 1u << 16;
  constexpr std::uint64_t kBlocks = (1ull << 32) / kBlock;
  std::vector<std::atomic<std::uint64_t>> mismatches(variants.size());
  std::mutex mu;
  std::vector<std::string> first(variants.size());
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
      for (std::size_t vi = 0; vi < variants.size(); ++vi) {
        std::memcpy(got.data(), in.data(), kBlock * sizeof(float));
        kernel->fake_quantize(*variants[vi], got, kScale);
        if (std::memcmp(got.data(), want.data(), kBlock * sizeof(float)) == 0)
          continue;
        for (std::uint64_t i = 0; i < kBlock; ++i) {
          const std::uint32_t g = std::bit_cast<std::uint32_t>(got[i]);
          if (g == want[i]) continue;
          if (mismatches[vi].fetch_add(1) == 0) {
            std::ostringstream os;
            os << "input 0x" << std::hex << in[i] << " got 0x" << g
               << " want 0x" << want[i];
            const std::lock_guard<std::mutex> lock(mu);
            first[vi] = os.str();
          }
        }
      }
    }
  });
  for (std::size_t vi = 0; vi < variants.size(); ++vi)
    EXPECT_EQ(mismatches[vi].load(), 0u)
        << variants[vi]->name << ", first mismatch: " << first[vi];
}

}  // namespace
}  // namespace mersit::formats::kernels
