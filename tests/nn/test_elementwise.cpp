// The elementwise entry (Backend::elementwise behind gemm::epilogue_apply)
// and the in-repo exp behind SiLU and sigmoid.
//
//  * Every backend the host executes must reproduce scalar epilogue_eval
//    element by element, for every Epilogue, with and without the scalar
//    affine, at every length 0-67 (all vector tails), in place and out of
//    place — bitwise for every non-NaN result, NaN for NaN (a NaN's payload
//    bits may differ between lane widths).
//  * The per-row-affine form (Backend::elementwise_rows) is bitwise one
//    affine elementwise call per row.
//  * Non-finite SiLU results stay pinned to the libm formula the repo used
//    before the in-repo exp: x * (1/(1 + std::exp(-x))).
//  * exp_eval stays within 1 ULP of std::exp on a sampled sweep of every
//    float (the exhaustive sweep is the `slow` test_exp_sweep).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <vector>

#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"

using namespace mersit::nn;

namespace {

using gemm::Epilogue;

constexpr Epilogue kAllEpilogues[] = {Epilogue::kNone,  Epilogue::kReLU,
                                      Epilogue::kReLU6, Epilogue::kSiLU,
                                      Epilogue::kHardSwish, Epilogue::kGELU};

/// Equal bits, or both NaN.
bool same_value(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

/// Distance in representable floats (same-sign finite or inf values).
std::int64_t ulp_distance(float a, float b) {
  return std::llabs(static_cast<std::int64_t>(std::bit_cast<std::int32_t>(a)) -
                    static_cast<std::int64_t>(std::bit_cast<std::int32_t>(b)));
}

/// Special values first (signed zeros, denormals, infinities, NaN, both
/// sides of the exp clamp and of the activation breakpoints), then random
/// values over a wide range.
std::vector<float> edge_inputs(std::size_t n, std::uint32_t seed) {
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> v = {
      0.f,       -0.f,       std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      1e-40f,    -1e-40f,    inf,
      -inf,      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      88.f,      -88.f,      88.7228317f,
      88.7228394f, -88.7228394f, 89.f,
      -89.f,     100.f,      -100.f,
      103.9720764f, -103.9720764f, -104.f,
      104.f,     1e30f,      -1e30f,
      3.f,       -3.f,       6.f,
      -6.f,      2.9999998f, -2.9999998f,
      6.0000005f, 1.f,       -1.f};
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> wide(-120.f, 120.f);
  std::uniform_real_distribution<float> narrow(-8.f, 8.f);
  while (v.size() < n) v.push_back(v.size() % 2 == 0 ? wide(rng) : narrow(rng));
  v.resize(n);
  return v;
}

struct BackendGuard {
  explicit BackendGuard(const gemm::Backend& be)
      : prev(gemm::set_backend(&be)) {}
  ~BackendGuard() { gemm::set_backend(prev); }
  const gemm::Backend* prev;
};

TEST(Elementwise, EveryBackendMatchesScalarEpilogueEval) {
  const std::vector<float> pool = edge_inputs(512, 31);
  const gemm::ScalarAffine affines[] = {{1.5f, -0.25f}, {-2.f, 0.f},
                                        {0.f, -0.f}, {1e-3f, 7.f}};
  constexpr float kGuard = -12345.f;
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    for (const Epilogue e : kAllEpilogues) {
      for (int a = -1; a < 4; ++a) {
        const gemm::ScalarAffine* aff = a < 0 ? nullptr : &affines[a];
        for (std::size_t n = 0; n <= 67; ++n) {
          // Slide the window so every special value meets every lane.
          const std::size_t off = (n * 7 + static_cast<std::size_t>(a + 1)) %
                                  (pool.size() - n);
          const float* src = pool.data() + off;
          std::vector<float> ref(n);
          for (std::size_t i = 0; i < n; ++i)
            ref[i] = gemm::epilogue_eval(
                e, aff != nullptr ? aff->scale * src[i] + aff->shift : src[i]);
          // Out of place, with guard words on both sides of dst.
          std::vector<float> out(n + 2, kGuard);
          be->elementwise(e, src, out.data() + 1, n, aff);
          EXPECT_EQ(out.front(), kGuard);
          EXPECT_EQ(out.back(), kGuard);
          // In place.
          std::vector<float> inplace(src, src + n);
          be->elementwise(e, inplace.data(), inplace.data(), n, aff);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(same_value(out[i + 1], ref[i]))
                << be->name << " epi=" << static_cast<int>(e) << " affine="
                << a << " n=" << n << " i=" << i << " x=" << src[i]
                << " got " << out[i + 1] << " want " << ref[i];
            ASSERT_TRUE(same_value(inplace[i], ref[i]))
                << be->name << " in place, epi=" << static_cast<int>(e)
                << " n=" << n << " i=" << i;
          }
        }
      }
    }
    // The public entry dispatches to the active backend.
    const BackendGuard g(*be);
    std::vector<float> dst(pool.size());
    gemm::epilogue_apply(Epilogue::kSiLU, pool.data(), dst.data(), pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
      ASSERT_TRUE(same_value(dst[i],
                             gemm::epilogue_eval(Epilogue::kSiLU, pool[i])));
  }
}

// The per-row-affine form must be bitwise one affine elementwise call per
// row, on every backend, for every epilogue, at every row length (vector
// tails included), in place and out of place.
TEST(Elementwise, RowsFormMatchesOneCallPerRow) {
  const std::vector<float> pool = edge_inputs(4096, 37);
  const std::vector<float> params = edge_inputs(64, 41);
  constexpr float kGuard = -12345.f;
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    for (const Epilogue e : kAllEpilogues) {
      for (const std::size_t rows : {0u, 1u, 3u, 7u}) {
        for (std::size_t len = 0; len <= 37; ++len) {
          const std::size_t n = rows * len;
          const std::size_t off = (len * 13 + rows) % (pool.size() - n);
          const float* src = pool.data() + off;
          // Per-row scale/shift drawn from the edge values (zeros, signed
          // zeros, infinities and NaN included).
          std::vector<float> scale(rows), shift(rows);
          for (std::size_t r = 0; r < rows; ++r) {
            scale[r] = params[(r * 5 + len) % params.size()];
            shift[r] = params[(r * 11 + len + 3) % params.size()];
          }
          std::vector<float> want(n);
          for (std::size_t r = 0; r < rows; ++r) {
            const gemm::ScalarAffine aff{scale[r], shift[r]};
            be->elementwise(e, src + r * len, want.data() + r * len, len, &aff);
          }
          std::vector<float> out(n + 2, kGuard);
          be->elementwise_rows(e, src, out.data() + 1, rows, len, scale.data(),
                               shift.data());
          EXPECT_EQ(out.front(), kGuard);
          EXPECT_EQ(out.back(), kGuard);
          std::vector<float> inplace(src, src + n);
          be->elementwise_rows(e, inplace.data(), inplace.data(), rows, len,
                               scale.data(), shift.data());
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(out[i + 1]),
                      std::bit_cast<std::uint32_t>(want[i]))
                << be->name << " epi=" << static_cast<int>(e)
                << " rows=" << rows << " len=" << len << " i=" << i;
            ASSERT_EQ(std::bit_cast<std::uint32_t>(inplace[i]),
                      std::bit_cast<std::uint32_t>(want[i]))
                << be->name << " in place, epi=" << static_cast<int>(e)
                << " rows=" << rows << " len=" << len << " i=" << i;
          }
        }
      }
    }
    // The public entry dispatches to the active backend.
    const BackendGuard g(*be);
    const float scale[2] = {0.5f, -3.f}, shift[2] = {1.f, 0.25f};
    std::vector<float> dst(18);
    gemm::epilogue_apply_rows(Epilogue::kReLU, pool.data(), dst.data(), 2, 9,
                              scale, shift);
    for (std::size_t i = 0; i < dst.size(); ++i)
      ASSERT_TRUE(same_value(
          dst[i], gemm::epilogue_eval(Epilogue::kReLU,
                                      scale[i / 9] * pool[i] + shift[i / 9])));
  }
}

TEST(Elementwise, SiluAndSigmoidNonFiniteMatchTheLibmFormula) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const auto libm_silu = [](float x) { return x * (1.f / (1.f + std::exp(-x))); };
  const auto libm_sigmoid = [](float x) { return 1.f / (1.f + std::exp(-x)); };
  for (const float x : {nan, -nan, inf, -inf, 89.f, -89.f, 100.f, -100.f,
                        1e30f, -1e30f, 0.f, -0.f}) {
    EXPECT_TRUE(same_value(gemm::epilogue_eval(Epilogue::kSiLU, x), libm_silu(x)))
        << x;
    EXPECT_TRUE(same_value(gemm::sigmoid_eval(x), libm_sigmoid(x))) << x;
  }
  // Pinned explicitly: NaN -> NaN, +inf -> +inf, -inf -> NaN.
  EXPECT_TRUE(std::isnan(gemm::epilogue_eval(Epilogue::kSiLU, nan)));
  EXPECT_EQ(gemm::epilogue_eval(Epilogue::kSiLU, inf), inf);
  EXPECT_TRUE(std::isnan(gemm::epilogue_eval(Epilogue::kSiLU, -inf)));
  EXPECT_EQ(gemm::sigmoid_eval(inf), 1.f);
  EXPECT_EQ(gemm::sigmoid_eval(-inf), 0.f);
}

TEST(Elementwise, ExpMatchesStdExpAtTheRangeEdges) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(gemm::exp_eval(inf), inf);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(gemm::exp_eval(-inf)), 0u);
  EXPECT_TRUE(std::isnan(gemm::exp_eval(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(gemm::exp_eval(0.f), 1.f);
  EXPECT_EQ(gemm::exp_eval(-0.f), 1.f);
  // Overflow and underflow thresholds agree with libm exactly.
  const float hi = 88.72283172607421875f;  // largest x with a finite expf
  EXPECT_TRUE(std::isfinite(gemm::exp_eval(hi)));
  EXPECT_TRUE(std::isfinite(std::exp(hi)));
  EXPECT_EQ(gemm::exp_eval(std::nextafter(hi, inf)), inf);
  EXPECT_EQ(std::exp(std::nextafter(hi, inf)), inf);
  const float lo = -103.972076416015625f;  // smallest x with a nonzero expf
  EXPECT_GT(std::exp(lo), 0.f);
  EXPECT_GT(gemm::exp_eval(lo), 0.f);
  EXPECT_EQ(std::exp(std::nextafter(lo, -inf)), 0.f);
  EXPECT_EQ(gemm::exp_eval(std::nextafter(lo, -inf)), 0.f);
}

TEST(Elementwise, ExpWithinOneUlpOfStdExpSampled) {
  // Every 251st bit pattern (~17M floats, both signs, denormals and the
  // overflow/underflow tails included).
  std::int64_t worst = 0;
  float worst_x = 0.f;
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 251) {
    const float x = std::bit_cast<float>(static_cast<std::uint32_t>(u));
    const float got = gemm::exp_eval(x);
    const float want = std::exp(x);
    if (std::isnan(x)) {
      ASSERT_TRUE(std::isnan(got)) << u;
      continue;
    }
    const std::int64_t d = ulp_distance(got, want);
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 1) << "worst at x=" << worst_x;
}

}  // namespace
