// The depthwise conv kernel (interior/border split, unrolled interior taps)
// against the naive reference loops (gemm::set_enabled(false)), fused with
// every inference BN + epilogue combination and unfused through the BN and
// Activation modules, on every backend the host executes (the fused BN+act
// pass runs through Backend::elementwise) at pool widths 1 and 3, over
// k ∈ {1,3,5} × stride ∈ {1,2,3} × pad ∈ {0,1,2} × h,w ∈ {1,2,3,5,12}.
//
// Two channels carry values that tell skipping an out-of-bounds tap from
// zero-padding it: a -0 bias over an all-zero plane whose in-bounds taps
// all have negative weights (a padded +w·0 tap would flip the -0 sum to
// +0), and a +inf weight on tap (0, 0) (a padded inf·0 tap would turn the
// border outputs into NaN).  Every result must match bitwise, NaN for NaN.
// The border reads are exactly what the ASan stage checks.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>

#include "core/thread_pool.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"
#include "nn/layers.h"

using namespace mersit;
using namespace mersit::nn;

namespace {

using gemm::Epilogue;

bool same_values(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (std::isnan(a[i]) || std::isnan(b[i])) {
      if (!(std::isnan(a[i]) && std::isnan(b[i]))) return false;
    } else if (std::bit_cast<std::uint32_t>(a[i]) !=
               std::bit_cast<std::uint32_t>(b[i])) {
      return false;
    }
  }
  return true;
}

struct DwCase {
  Conv2d conv;
  BatchNorm2d bn;
  Tensor x;
};

constexpr int kChannels = 3;
constexpr int kBatch = 3;

DwCase make_case(int k, int stride, int pad, int h, int w, std::mt19937& rng) {
  DwCase s{Conv2d(kChannels, kChannels, k, stride, pad, kChannels, rng),
          BatchNorm2d(kChannels), Tensor({kBatch, kChannels, h, w})};
  std::normal_distribution<float> nd(0.f, 1.f);
  float* wt = s.conv.weight.value.raw();
  const int kk = k * k;
  for (int t = 0; t < kk; ++t) {
    wt[t] = t == 0 ? 1.f : -1.f;                             // channel 0
    wt[kk + t] = t == 0 ? std::numeric_limits<float>::infinity()  // channel 1
                        : nd(rng);
    wt[2 * kk + t] = nd(rng);                                // channel 2
  }
  s.conv.bias.value[0] = -0.f;
  s.conv.bias.value[1] = nd(rng);
  s.conv.bias.value[2] = nd(rng);
  s.conv.weight.bump_version();
  s.conv.bias.bump_version();
  for (int c = 0; c < kChannels; ++c) {
    s.bn.gamma.value[c] = 0.5f + std::abs(nd(rng));
    s.bn.beta.value[c] = nd(rng);
    s.bn.running_mean[c] = 0.1f * nd(rng);
    s.bn.running_var[c] = 0.5f + std::abs(nd(rng));
  }
  for (int b = 0; b < kBatch; ++b)
    for (int c = 0; c < kChannels; ++c)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j)
          s.x.at(b, c, i, j) = c == 0 ? 0.f : nd(rng);
  return s;
}

struct GemmGuard {
  explicit GemmGuard(bool on) : prev(gemm::set_enabled(on)) {}
  ~GemmGuard() { gemm::set_enabled(prev); }
  bool prev;
};

struct BackendGuard {
  explicit BackendGuard(const gemm::Backend& be)
      : prev(gemm::set_backend(&be)) {}
  ~BackendGuard() { gemm::set_backend(prev); }
  const gemm::Backend* prev;
};

struct ActOf {
  Epilogue epi;
  Act act;
};
constexpr ActOf kActs[] = {{Epilogue::kReLU, Act::kReLU},
                           {Epilogue::kReLU6, Act::kReLU6},
                           {Epilogue::kSiLU, Act::kSiLU},
                           {Epilogue::kHardSwish, Act::kHardSwish},
                           {Epilogue::kGELU, Act::kGELU}};

TEST(Depthwise, KernelBitwiseMatchesNaiveLoopsFusedAndUnfused) {
  const int prev_threads = core::global_pool().size();
  std::mt19937 rng(2024);
  int geometries = 0;
  for (const int threads : {1, 3}) {
    core::resize_global_pool(threads);
    for (const gemm::Backend* be : gemm::backends()) {
      if (!be->supported()) continue;
      const BackendGuard bg(*be);
      for (const int k : {1, 3, 5})
        for (const int stride : {1, 2, 3})
          for (const int pad : {0, 1, 2})
            for (const int h : {1, 2, 3, 5, 12})
              for (const int w : {1, 2, 3, 5, 12}) {
                if (h + 2 * pad < k || w + 2 * pad < k) continue;
                ++geometries;
                DwCase s = make_case(k, stride, pad, h, w, rng);
                const Context ctx;
                const auto where = [&] {
                  return ::testing::Message()
                         << be->name << " threads=" << threads << " k=" << k
                         << " s=" << stride << " p=" << pad << " h=" << h
                         << " w=" << w;
                };
                // Fused: every epilogue, with and without the BN affine.
                for (const BatchNorm2d* bn : {static_cast<BatchNorm2d*>(nullptr), &s.bn})
                  for (const Epilogue e :
                       {Epilogue::kNone, Epilogue::kReLU, Epilogue::kReLU6,
                        Epilogue::kSiLU, Epilogue::kHardSwish, Epilogue::kGELU}) {
                    Tensor ref;
                    {
                      const GemmGuard naive(false);
                      ref = s.conv.forward_fused(s.x, ctx, e, bn);
                    }
                    const Tensor got = s.conv.forward_fused(s.x, ctx, e, bn);
                    ASSERT_TRUE(same_values(got, ref))
                        << where() << " epi=" << static_cast<int>(e)
                        << " bn=" << (bn != nullptr);
                  }
                // Unfused: conv, then the BN module, then each Activation
                // module, against the naive fused loops.
                const Tensor y = s.conv.forward(s.x, ctx);
                const Tensor z = s.bn.forward(y, ctx);
                for (const ActOf& a : kActs) {
                  Tensor ref;
                  {
                    const GemmGuard naive(false);
                    ref = s.conv.forward_fused(s.x, ctx, a.epi, &s.bn);
                  }
                  Activation act(a.act);
                  ASSERT_TRUE(same_values(act.forward(z, ctx), ref))
                      << where() << " unfused act=" << act_name(a.act);
                }
              }
    }
  }
  core::resize_global_pool(prev_threads);
  EXPECT_GT(geometries, 0);
}

TEST(Depthwise, SkippedTapsKeepNegativeZeroAndFiniteBorders) {
  // The two sentinel channels on their own, so a zero-padding kernel fails
  // with a readable message: 3x3, pad 1, 5x5 plane.
  std::mt19937 rng(7);
  DwCase s = make_case(3, 1, 1, 5, 5, rng);
  const Tensor y = s.conv.forward(s.x, Context{});
  // Outputs (0, 0), (0, 1) and (1, 0) skip tap (0, 0) — out of bounds by
  // row, by both, by column: channel 0 sums -0 + (-1)·0 terms → -0, and
  // channel 1 never meets its inf weight → finite.
  for (const auto& [i, j] : {std::pair{0, 0}, std::pair{0, 1}, std::pair{1, 0}}) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(y.at(0, 0, i, j)),
              std::bit_cast<std::uint32_t>(-0.f))
        << i << "," << j;
    EXPECT_TRUE(std::isfinite(y.at(0, 1, i, j))) << i << "," << j;
  }
  // Output (1, 1) reads tap (0, 0) in bounds: +1·0 joins → +0; inf joins.
  EXPECT_EQ(std::bit_cast<std::uint32_t>(y.at(0, 0, 1, 1)), 0u);
  EXPECT_TRUE(std::isinf(y.at(0, 1, 1, 1)));
}

}  // namespace
