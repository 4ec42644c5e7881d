// Exhaustive check of the in-repo exp (gemm::exp_eval, behind SiLU and
// sigmoid) against std::exp: every float in its clamp range
// [-103.972076, 88.7228317] (2.24e9 values, denormals and both signed zeros
// included) must land within 1 ULP.  Outside the range the exp selects +inf
// / +0, which Elementwise.ExpMatchesStdExpAtTheRangeEdges pins against
// libm; the sampled tier-1 sweep over all patterns is
// Elementwise.ExpWithinOneUlpOfStdExpSampled.  Labeled slow: ~30 s on 4
// cores in Release.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "core/thread_pool.h"
#include "nn/gemm/gemm.h"

using namespace mersit;

TEST(ExpSweep, EveryFloatInTheClampRangeWithinOneUlpOfStdExp) {
  // Positive floats [+0, hi] and negative floats [-0, lo] as bit ranges.
  const std::uint64_t pos_end =
      std::bit_cast<std::uint32_t>(88.72283172607421875f) + std::uint64_t{1};
  const std::uint64_t neg_begin = 0x80000000u;
  const std::uint64_t neg_end =
      std::bit_cast<std::uint32_t>(-103.972076416015625f) + std::uint64_t{1};
  const std::uint64_t total = pos_end + (neg_end - neg_begin);
  constexpr std::uint64_t kBlocks = 4096;
  std::atomic<std::int64_t> worst{0};
  core::global_pool().parallel_chunks(kBlocks, [&](std::size_t begin,
                                                   std::size_t end) {
    std::int64_t local = 0;
    for (std::uint64_t i = begin * total / kBlocks; i < end * total / kBlocks;
         ++i) {
      const std::uint64_t u = i < pos_end ? i : neg_begin + (i - pos_end);
      const float x = std::bit_cast<float>(static_cast<std::uint32_t>(u));
      const std::int64_t d = std::llabs(
          static_cast<std::int64_t>(
              std::bit_cast<std::int32_t>(nn::gemm::exp_eval(x))) -
          static_cast<std::int64_t>(std::bit_cast<std::int32_t>(std::exp(x))));
      local = std::max(local, d);
    }
    std::int64_t prev = worst.load();
    while (local > prev && !worst.compare_exchange_weak(prev, local)) {
    }
  });
  EXPECT_LE(worst.load(), 1);
}
