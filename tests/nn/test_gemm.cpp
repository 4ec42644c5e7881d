// Equivalence of the GEMM-lowered inference paths against the naive
// reference loops (selected with MERSIT_GEMM=0 / gemm::set_enabled(false)),
// plus thread-count invariance of the blocked kernel itself.
//
// The GEMM paths are designed to reproduce the naive rounding sequence
// exactly (fixed ascending-k summation from the same initial value), so the
// forward comparisons demand bitwise equality — stronger than the 4-ULP
// acceptance bound.  Conv backward folds the input gradient through
// col2im, which reassociates the per-element sums, so it gets a small
// numeric tolerance instead.
#include "nn/gemm/gemm.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/thread_pool.h"
#include "nn/attention.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/im2col.h"
#include "nn/layers.h"

namespace mersit::nn {
namespace {

// Give the global pool real fan-out even on single-core CI (respects an
// explicit MERSIT_THREADS from the environment).  Static init runs before
// main(), which is before the pool's first use can construct it.
const bool kEnvReady = [] {
  setenv("MERSIT_THREADS", "4", /*overwrite=*/0);
  return true;
}();

/// Restores the GEMM dispatch switch on scope exit.
struct GemmGuard {
  explicit GemmGuard(bool on) : prev(gemm::set_enabled(on)) {}
  ~GemmGuard() { gemm::set_enabled(prev); }
  bool prev;
};

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
}

/// ULP distance between two finite floats (monotone integer mapping).
std::uint32_t ulp_distance(float a, float b) {
  auto key = [](float v) {
    const auto u = std::bit_cast<std::uint32_t>(v);
    return (u & 0x8000'0000u) != 0 ? 0x8000'0000u - (u & 0x7fff'ffffu)
                                   : 0x8000'0000u + u;
  };
  const std::uint32_t ka = key(a), kb = key(b);
  return ka > kb ? ka - kb : kb - ka;
}

std::uint32_t max_ulp(std::span<const float> a, std::span<const float> b) {
  EXPECT_EQ(a.size(), b.size());
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, ulp_distance(a[i], b[i]));
  return m;
}

float max_abs_diff(std::span<const float> a, std::span<const float> b) {
  EXPECT_EQ(a.size(), b.size());
  float m = 0.f;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

std::vector<float> random_vec(std::size_t n, std::mt19937& rng) {
  std::normal_distribution<float> dist(0.f, 1.f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Naive triple loop with the contract sgemm promises to reproduce: each
/// element starts from its init value and accumulates k-ascending.
void ref_gemm(int M, int N, int K, const float* A, int lda, bool ta,
              const float* B, int ldb, bool tb, float* C, int ldc,
              gemm::Init init, const float* bias) {
  for (int m = 0; m < M; ++m) {
    for (int n = 0; n < N; ++n) {
      float acc;
      switch (init) {
        case gemm::Init::kZero: acc = 0.f; break;
        case gemm::Init::kBiasRow: acc = bias[m]; break;
        case gemm::Init::kBiasCol: acc = bias[n]; break;
        case gemm::Init::kAccumulate: acc = C[static_cast<std::size_t>(m) * ldc + n]; break;
      }
      for (int k = 0; k < K; ++k) {
        const float a = ta ? A[static_cast<std::size_t>(k) * lda + m]
                           : A[static_cast<std::size_t>(m) * lda + k];
        const float b = tb ? B[static_cast<std::size_t>(n) * ldb + k]
                           : B[static_cast<std::size_t>(k) * ldb + n];
        acc += a * b;
      }
      C[static_cast<std::size_t>(m) * ldc + n] = acc;
    }
  }
}

// ------------------------------------------------------------- the kernel --

TEST(GemmKernel, MatchesReferenceAcrossShapesTransposesAndInits) {
  ASSERT_TRUE(kEnvReady);
  std::mt19937 rng(7);
  // Shapes straddle the register tile (6x8), its edges, and a few larger
  // panels; every (trans_a, trans_b, init) combination runs on each.
  const int shapes[][3] = {{1, 1, 1},   {1, 8, 5},   {6, 8, 16},  {5, 7, 3},
                           {13, 9, 21}, {48, 33, 17}, {64, 80, 40}};
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const int lda = ta ? M : K;
        const int ldb = tb ? K : N;
        const auto A = random_vec(static_cast<std::size_t>(ta ? K : M) * lda, rng);
        const auto B = random_vec(static_cast<std::size_t>(tb ? N : K) * ldb, rng);
        const auto bias = random_vec(static_cast<std::size_t>(std::max(M, N)), rng);
        for (const auto init : {gemm::Init::kZero, gemm::Init::kBiasRow,
                                gemm::Init::kBiasCol, gemm::Init::kAccumulate}) {
          const auto seed = random_vec(static_cast<std::size_t>(M) * N, rng);
          std::vector<float> want = seed, got = seed;
          ref_gemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb, want.data(),
                   N, init, bias.data());
          gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb, got.data(),
                      N, init, bias.data());
          EXPECT_TRUE(bitwise_equal(got, want))
              << "M=" << M << " N=" << N << " K=" << K << " ta=" << ta
              << " tb=" << tb << " init=" << static_cast<int>(init);
        }
      }
    }
  }
}

TEST(GemmKernel, BlockingBoundariesMatchReference) {
  // Crosses the cache-block edges (MC=120, KC=256) so multi-panel k
  // accumulation and edge tiles are exercised.
  std::mt19937 rng(11);
  const int M = 123, N = 70, K = 300;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  std::vector<float> want(static_cast<std::size_t>(M) * N);
  std::vector<float> got(want.size());
  ref_gemm(M, N, K, A.data(), K, false, B.data(), N, false, want.data(), N,
           gemm::Init::kZero, nullptr);
  gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, got.data(), N);
  EXPECT_TRUE(bitwise_equal(got, want));
}

TEST(GemmKernel, StridedOutputLeavesGapsUntouched) {
  std::mt19937 rng(13);
  const int M = 9, N = 5, K = 12, ldc = 8;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  std::vector<float> c(static_cast<std::size_t>(M) * ldc, 42.f);
  std::vector<float> want = c;
  ref_gemm(M, N, K, A.data(), K, false, B.data(), N, false, want.data(), ldc,
           gemm::Init::kZero, nullptr);
  gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, c.data(), ldc);
  EXPECT_TRUE(bitwise_equal(c, want));
  for (int m = 0; m < M; ++m)
    for (int n = N; n < ldc; ++n)
      EXPECT_EQ(c[static_cast<std::size_t>(m) * ldc + n], 42.f);
}

// ------------------------------------------------------ thread invariance --

TEST(GemmThreads, ResultInvariantAcrossPoolSizes) {
  std::mt19937 rng(17);
  const int M = 150, N = 90, K = 64;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  std::vector<float> base(static_cast<std::size_t>(M) * N);
  gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, base.data(), N);
  for (const int threads : {1, 4, 13}) {
    core::ThreadPool pool(threads);
    std::vector<float> out(base.size());
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, out.data(), N,
                gemm::Init::kZero, nullptr, &pool);
    EXPECT_TRUE(bitwise_equal(out, base)) << "threads=" << threads;
  }
}

TEST(GemmThreads, ConvForwardSerialVsParallelBitwise) {
  // The conv batch loop fans out on the global pool; forcing it inline via
  // the pool's nesting rule must not change a single bit.
  std::mt19937 rng(19);
  Conv2d conv(6, 8, 3, 1, 1, 2, rng);
  const Tensor x = Tensor::randn({8, 6, 9, 7}, rng, 1.f);
  const Context ctx;
  const Tensor parallel_y = conv.forward(x, ctx);
  Tensor serial_y;
  core::global_pool().parallel_chunks(
      1, [&](std::size_t, std::size_t) { serial_y = conv.forward(x, ctx); });
  EXPECT_TRUE(bitwise_equal(serial_y.data(), parallel_y.data()));
}

// ------------------------------------------------------------------- conv --

Tensor conv_forward_both_ways(Conv2d& conv, const Tensor& x, bool use_gemm) {
  const GemmGuard guard(use_gemm);
  const Context ctx;
  return conv.forward(x, ctx);
}

TEST(GemmConv, ForwardMatchesNaiveBitwiseAcrossGeometries) {
  std::mt19937 rng(23);
  const int n = 2, h = 7, w = 5;
  for (const int k : {1, 3, 5}) {
    for (const int stride : {1, 2}) {
      for (const int pad : {0, 1, 2}) {
        if (h + 2 * pad < k || w + 2 * pad < k) continue;
        for (const int groups : {1, 2, 4}) {
          const int in_ch = 4;
          const int out_ch = groups == 4 ? 4 : 6;  // groups==in==out: depthwise
          Conv2d conv(in_ch, out_ch, k, stride, pad, groups, rng);
          const Tensor x = Tensor::randn({n, in_ch, h, w}, rng, 1.f);
          const Tensor naive = conv_forward_both_ways(conv, x, false);
          const Tensor fast = conv_forward_both_ways(conv, x, true);
          EXPECT_TRUE(bitwise_equal(fast.data(), naive.data()))
              << "k=" << k << " stride=" << stride << " pad=" << pad
              << " groups=" << groups;
        }
      }
    }
  }
}

TEST(GemmConv, ForwardMatchesNaiveOnDegenerateSpatialShapes) {
  std::mt19937 rng(29);
  struct Shape { int h, w, k, stride, pad; };
  const Shape shapes[] = {{1, 9, 3, 1, 1}, {9, 1, 3, 1, 1}, {3, 3, 3, 1, 0},
                          {4, 4, 1, 2, 0}, {6, 10, 5, 2, 2}};
  for (const auto& s : shapes) {
    Conv2d conv(3, 5, s.k, s.stride, s.pad, 1, rng);
    const Tensor x = Tensor::randn({3, 3, s.h, s.w}, rng, 1.f);
    const Tensor naive = conv_forward_both_ways(conv, x, false);
    const Tensor fast = conv_forward_both_ways(conv, x, true);
    EXPECT_TRUE(bitwise_equal(fast.data(), naive.data()))
        << "h=" << s.h << " w=" << s.w << " k=" << s.k;
  }
}

TEST(GemmConv, BackwardMatchesNaiveWithinTolerance) {
  std::mt19937 rng(31);
  for (const int groups : {1, 2, 4}) {
    const int in_ch = 4, h = 7, w = 6;
    const int out_ch = groups == 4 ? 4 : 6;
    for (const int k : {1, 3}) {
      const int stride = k == 1 ? 1 : 2, pad = k == 1 ? 0 : 1;
      Conv2d conv(in_ch, out_ch, k, stride, pad, groups, rng);
      const Tensor x = Tensor::randn({2, in_ch, h, w}, rng, 1.f);
      Context train_ctx;
      train_ctx.train = true;

      const GemmGuard off(false);
      const Tensor y = conv.forward(x, train_ctx);
      const Tensor gy = Tensor::randn(y.shape(), rng, 1.f);
      conv.zero_grad();
      const Tensor naive_dx = conv.backward(gy);
      const Tensor naive_dw = conv.weight.grad;
      const Tensor naive_db = conv.bias.grad;

      gemm::set_enabled(true);
      (void)conv.forward(x, train_ctx);
      conv.zero_grad();
      const Tensor fast_dx = conv.backward(gy);

      // dW/db reproduce the naive accumulation order; dx goes through
      // col2im which regroups the sums, hence the numeric bound.
      EXPECT_LE(max_ulp(conv.weight.grad.data(), naive_dw.data()), 4u)
          << "groups=" << groups << " k=" << k;
      EXPECT_LE(max_ulp(conv.bias.grad.data(), naive_db.data()), 4u);
      EXPECT_LE(max_abs_diff(fast_dx.data(), naive_dx.data()),
                1e-4f * std::max(1.f, naive_dx.abs_max()))
          << "groups=" << groups << " k=" << k;
    }
  }
}

// ----------------------------------------------------------------- linear --

TEST(GemmLinear, ForwardMatchesNaiveBitwise) {
  std::mt19937 rng(37);
  Linear lin(37, 19, rng);
  std::normal_distribution<float> dist(0.f, 1.f);
  for (auto& b : lin.bias.value.data()) b = dist(rng);
  const Tensor x = Tensor::randn({11, 37}, rng, 1.f);
  const Context ctx;
  Tensor naive, fast;
  {
    const GemmGuard off(false);
    naive = lin.forward(x, ctx);
  }
  {
    const GemmGuard on(true);
    fast = lin.forward(x, ctx);
  }
  EXPECT_TRUE(bitwise_equal(fast.data(), naive.data()));
}

TEST(GemmLinear, BackwardMatchesNaiveBitwise) {
  std::mt19937 rng(41);
  Linear lin(23, 15, rng);
  const Tensor x = Tensor::randn({9, 23}, rng, 1.f);
  const Tensor gy = Tensor::randn({9, 15}, rng, 1.f);
  Context train_ctx;
  train_ctx.train = true;

  const GemmGuard off(false);
  (void)lin.forward(x, train_ctx);
  lin.zero_grad();
  const Tensor naive_dx = lin.backward(gy);
  const Tensor naive_dw = lin.weight.grad;
  const Tensor naive_db = lin.bias.grad;

  gemm::set_enabled(true);
  (void)lin.forward(x, train_ctx);
  lin.zero_grad();
  const Tensor fast_dx = lin.backward(gy);

  EXPECT_TRUE(bitwise_equal(fast_dx.data(), naive_dx.data()));
  EXPECT_TRUE(bitwise_equal(lin.weight.grad.data(), naive_dw.data()));
  EXPECT_TRUE(bitwise_equal(lin.bias.grad.data(), naive_db.data()));
}

// -------------------------------------------------------------- attention --

TEST(GemmAttention, MhsaForwardMatchesNaiveBitwise) {
  std::mt19937 rng(43);
  MultiHeadSelfAttention attn(16, 4, rng);
  const Tensor x = Tensor::randn({3, 7, 16}, rng, 1.f);
  const Context ctx;
  Tensor naive, fast;
  {
    const GemmGuard off(false);
    naive = attn.forward(x, ctx);
  }
  {
    const GemmGuard on(true);
    fast = attn.forward(x, ctx);
  }
  EXPECT_TRUE(bitwise_equal(fast.data(), naive.data()));
}

TEST(GemmAttention, TransformerBlockForwardMatchesNaiveBitwise) {
  std::mt19937 rng(47);
  TransformerBlock block(16, 4, 32, rng);
  const Tensor x = Tensor::randn({2, 9, 16}, rng, 1.f);
  const Context ctx;
  Tensor naive, fast;
  {
    const GemmGuard off(false);
    naive = block.forward(x, ctx);
  }
  {
    const GemmGuard on(true);
    fast = block.forward(x, ctx);
  }
  EXPECT_TRUE(bitwise_equal(fast.data(), naive.data()));
}

TEST(GemmAttention, MhsaBackwardMatchesNaiveBitwise) {
  std::mt19937 rng(53);
  const Tensor x = Tensor::randn({2, 6, 16}, rng, 1.f);
  const Tensor gy = Tensor::randn({2, 6, 16}, rng, 1.f);
  Context train_ctx;
  train_ctx.train = true;

  // Two identically-seeded modules so each path owns its caches/grads.
  std::mt19937 rng_a(59), rng_b(59);
  MultiHeadSelfAttention naive_attn(16, 4, rng_a);
  MultiHeadSelfAttention fast_attn(16, 4, rng_b);

  Tensor naive_dx, fast_dx;
  {
    const GemmGuard off(false);
    (void)naive_attn.forward(x, train_ctx);
    naive_dx = naive_attn.backward(gy);
  }
  {
    const GemmGuard on(true);
    (void)fast_attn.forward(x, train_ctx);
    fast_dx = fast_attn.backward(gy);
  }
  EXPECT_TRUE(bitwise_equal(fast_dx.data(), naive_dx.data()));
  const auto naive_params = naive_attn.parameters();
  const auto fast_params = fast_attn.parameters();
  ASSERT_EQ(naive_params.size(), fast_params.size());
  for (std::size_t i = 0; i < naive_params.size(); ++i)
    EXPECT_TRUE(bitwise_equal(fast_params[i]->grad.data(),
                              naive_params[i]->grad.data()));
}

// ---------------------------------------------------------------- im2col ---

TEST(GemmIm2col, RoundTripAccumulatesEveryTapOnce)
{
  // col2im_add(im2col(x)) multiplies each pixel by the number of kernel
  // windows covering it; with k=1/stride=1/pad=0 that count is exactly 1.
  std::mt19937 rng(61);
  const int c = 3, h = 5, w = 4;
  const auto x = random_vec(static_cast<std::size_t>(c) * h * w, rng);
  std::vector<float> col(x.size());
  std::vector<float> back(x.size(), 0.f);
  gemm::im2col(x.data(), c, h, w, 1, 1, 0, col.data());
  EXPECT_TRUE(bitwise_equal(col, x));
  gemm::col2im_add(col.data(), c, h, w, 1, 1, 0, back.data());
  EXPECT_TRUE(bitwise_equal(back, x));
}

// ---------------------------------------------------------- SIMD backends --
//
// Every compiled-in backend the host can execute is gated bitwise against
// the scalar reference: same shapes/transposes/inits, strided C, thread
// counts, fused epilogues, and the prepacked-operand path.  Bit identity
// holds because every backend accumulates ascending-k with a separately
// rounded multiply and add per step (no FMA) — tile geometry may differ.

/// Restores the active GEMM backend on scope exit.
struct BackendGuard {
  explicit BackendGuard(const gemm::Backend& be)
      : prev(gemm::set_backend(&be)) {}
  ~BackendGuard() { gemm::set_backend(prev); }
  const gemm::Backend* prev;
};

TEST(GemmBackend, RegistryListsScalarLastWithUniqueIdsAndNames) {
  const auto list = gemm::backends();
  ASSERT_FALSE(list.empty());
  // Scalar terminates detection: always compiled in, always supported.
  EXPECT_EQ(list.back(), &gemm::scalar_backend());
  EXPECT_TRUE(gemm::scalar_backend().supported());
  EXPECT_TRUE(gemm::active_backend().supported());
  std::set<int> ids;
  for (const gemm::Backend* be : list) {
    EXPECT_GE(be->id, 0) << be->name;
    EXPECT_LT(be->id, 16) << be->name;  // ids join the pack-cache key bits
    EXPECT_TRUE(ids.insert(be->id).second) << "duplicate id: " << be->name;
    EXPECT_EQ(gemm::find_backend(be->name), be);
    EXPECT_EQ(be->mc % be->mr, 0) << be->name;  // full tiles inside a block
  }
}

TEST(GemmBackend, ParseBackendRejectsUnknownNamesListingTheRegistry) {
  EXPECT_EQ(&gemm::parse_backend("scalar"), &gemm::scalar_backend());
  EXPECT_EQ(gemm::find_backend("bogus"), nullptr);
  try {
    (void)gemm::parse_backend("bogus");
    FAIL() << "unknown backend name accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
    // The message lists every compiled-in backend so the fix is self-evident.
    for (const gemm::Backend* be : gemm::backends())
      EXPECT_NE(what.find(be->name), std::string::npos) << what;
  }
}

TEST(GemmBackend, SetBackendRoundTripsAndRejectsNull) {
  const gemm::Backend& before = gemm::active_backend();
  {
    const BackendGuard g(gemm::scalar_backend());
    EXPECT_EQ(&gemm::active_backend(), &gemm::scalar_backend());
  }
  EXPECT_EQ(&gemm::active_backend(), &before);
  EXPECT_THROW(gemm::set_backend(nullptr), std::invalid_argument);
}

TEST(GemmBackend, EveryBackendBitIdenticalToScalarAcrossShapesAndInits) {
  ASSERT_TRUE(kEnvReady);
  std::mt19937 rng(67);
  // All shapes exceed the direct-path cutoff so the packed kernels actually
  // run; they are ragged against every backend's register tile (4x8, 6x16,
  // 8x16, 6x8) and the last one crosses the MC=120 / KC=256 cache blocks.
  const int shapes[][3] = {
      {17, 19, 50}, {48, 33, 17}, {64, 80, 40}, {123, 70, 300}};
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const int lda = ta ? M : K;
        const int ldb = tb ? K : N;
        const auto A = random_vec(static_cast<std::size_t>(ta ? K : M) * lda, rng);
        const auto B = random_vec(static_cast<std::size_t>(tb ? N : K) * ldb, rng);
        const auto bias = random_vec(static_cast<std::size_t>(std::max(M, N)), rng);
        for (const auto init : {gemm::Init::kZero, gemm::Init::kBiasRow,
                                gemm::Init::kBiasCol, gemm::Init::kAccumulate}) {
          const auto seed = random_vec(static_cast<std::size_t>(M) * N, rng);
          std::vector<float> want = seed;
          {
            const BackendGuard g(gemm::scalar_backend());
            gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb,
                        want.data(), N, init, bias.data());
          }
          for (const gemm::Backend* be : gemm::backends()) {
            if (!be->supported()) continue;
            const BackendGuard g(*be);
            std::vector<float> got = seed;
            gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb,
                        got.data(), N, init, bias.data());
            EXPECT_TRUE(bitwise_equal(got, want))
                << be->name << " M=" << M << " N=" << N << " K=" << K
                << " ta=" << ta << " tb=" << tb
                << " init=" << static_cast<int>(init);
          }
        }
      }
    }
  }
}

TEST(GemmBackend, StridedOutputGapsUntouchedPerBackend) {
  std::mt19937 rng(71);
  const int M = 33, N = 29, K = 11, ldc = 37;  // above the direct-path cutoff
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  std::vector<float> want(static_cast<std::size_t>(M) * ldc, 42.f);
  {
    const BackendGuard g(gemm::scalar_backend());
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, want.data(),
                ldc);
  }
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    const BackendGuard g(*be);
    std::vector<float> c(static_cast<std::size_t>(M) * ldc, 42.f);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, c.data(), ldc);
    EXPECT_TRUE(bitwise_equal(c, want)) << be->name;
    for (int m = 0; m < M; ++m)
      for (int n = N; n < ldc; ++n)
        EXPECT_EQ(c[static_cast<std::size_t>(m) * ldc + n], 42.f)
            << be->name << " m=" << m << " n=" << n;
  }
}

TEST(GemmBackend, EpiloguesAndRowAffineBitIdenticalToScalarPerBackend) {
  std::mt19937 rng(79);
  const int M = 50, N = 26, K = 33;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  const auto scale = random_vec(static_cast<std::size_t>(M), rng);
  const auto shift = random_vec(static_cast<std::size_t>(M), rng);
  const gemm::RowAffine affine{scale.data(), shift.data()};
  for (const auto epi :
       {gemm::Epilogue::kNone, gemm::Epilogue::kReLU, gemm::Epilogue::kReLU6,
        gemm::Epilogue::kSiLU, gemm::Epilogue::kHardSwish,
        gemm::Epilogue::kGELU}) {
    for (const gemm::RowAffine* aff : {static_cast<const gemm::RowAffine*>(nullptr), &affine}) {
      std::vector<float> want(static_cast<std::size_t>(M) * N);
      {
        const BackendGuard g(gemm::scalar_backend());
        gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                    want.data(), N, gemm::Init::kZero, nullptr, nullptr, epi,
                    nullptr, nullptr, aff);
      }
      for (const gemm::Backend* be : gemm::backends()) {
        if (!be->supported()) continue;
        const BackendGuard g(*be);
        std::vector<float> got(want.size());
        gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                    got.data(), N, gemm::Init::kZero, nullptr, nullptr, epi,
                    nullptr, nullptr, aff);
        EXPECT_TRUE(bitwise_equal(got, want))
            << be->name << " epi=" << static_cast<int>(epi)
            << " affine=" << (aff != nullptr);
      }
    }
  }
}

TEST(GemmBackend, ThreadCountInvariantPerBackend) {
  std::mt19937 rng(83);
  const int M = 150, N = 90, K = 64;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    const BackendGuard g(*be);
    std::vector<float> base(static_cast<std::size_t>(M) * N);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, base.data(), N);
    for (const int threads : {1, 4, 13}) {
      core::ThreadPool pool(threads);
      std::vector<float> out(base.size());
      gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, out.data(),
                  N, gemm::Init::kZero, nullptr, &pool);
      EXPECT_TRUE(bitwise_equal(out, base))
          << be->name << " threads=" << threads;
    }
  }
}

TEST(GemmBackend, PrepackedOperandsBitIdenticalAndStampedPerBackend) {
  std::mt19937 rng(89);
  const int M = 70, N = 51, K = 123;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  for (const gemm::Backend* be : gemm::backends()) {
    if (!be->supported()) continue;
    const BackendGuard g(*be);
    std::vector<float> base(static_cast<std::size_t>(M) * N);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, base.data(), N);
    const gemm::PackedMatrix pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
    const gemm::PackedMatrix pb = gemm::pack_b_matrix(K, N, B.data(), N, false);
    // Self-describing layout: packs carry the geometry they were built for.
    EXPECT_EQ(pa.backend_id, be->id) << be->name;
    EXPECT_EQ(pb.backend_id, be->id) << be->name;
    EXPECT_EQ(pa.mr, be->mr) << be->name;
    EXPECT_EQ(pb.nr, be->nr) << be->name;
    std::vector<float> got(base.size());
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, got.data(), N,
                gemm::Init::kZero, nullptr, nullptr, gemm::Epilogue::kNone,
                &pa, &pb);
    EXPECT_TRUE(bitwise_equal(got, base)) << be->name;
  }
}

TEST(GemmBackend, RejectsOperandsPackedForAForeignBackend) {
  const gemm::Backend* other = nullptr;
  for (const gemm::Backend* be : gemm::backends())
    if (be != &gemm::scalar_backend() && be->supported()) {
      other = be;
      break;
    }
  if (other == nullptr)
    GTEST_SKIP() << "host supports only the scalar backend";
  std::mt19937 rng(97);
  const int M = 64, N = 48, K = 32;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  gemm::PackedMatrix pa, pb;
  {
    const BackendGuard g(*other);
    pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
    pb = gemm::pack_b_matrix(K, N, B.data(), N, false);
  }
  const BackendGuard g(gemm::scalar_backend());
  std::vector<float> c(static_cast<std::size_t>(M) * N);
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           c.data(), N, gemm::Init::kZero, nullptr, nullptr,
                           gemm::Epilogue::kNone, &pa, nullptr),
               std::invalid_argument);
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           c.data(), N, gemm::Init::kZero, nullptr, nullptr,
                           gemm::Epilogue::kNone, nullptr, &pb),
               std::invalid_argument);
}

TEST(GemmEnv, SetEnabledReturnsPreviousValue) {
  const bool was = gemm::enabled();
  EXPECT_EQ(gemm::set_enabled(false), was);
  EXPECT_FALSE(gemm::enabled());
  EXPECT_FALSE(gemm::set_enabled(was));
  EXPECT_EQ(gemm::enabled(), was);
}

/// Sets (or unsets, for nullptr) an environment variable for one scope.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_)
      setenv(name_, old_->c_str(), 1);
    else
      unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

// The GEMM switches are strict 0/1 flags: unset or empty selects the
// default, "0"/"1" set it, and anything else throws naming the variable
// and the accepted set — MERSIT_GEMM=false must not silently leave GEMM on.
TEST(GemmEnv, SwitchesAcceptExactlyZeroAndOne) {
  for (const char* name : {"MERSIT_GEMM", "MERSIT_PREPACK", "MERSIT_FOLD_BN"}) {
    SCOPED_TRACE(name);
    for (const bool fallback : {false, true}) {
      {
        const ScopedEnv env(name, nullptr);
        EXPECT_EQ(core::env_flag(name, fallback), fallback);
      }
      {
        const ScopedEnv env(name, "");
        EXPECT_EQ(core::env_flag(name, fallback), fallback);
      }
      {
        const ScopedEnv env(name, "0");
        EXPECT_FALSE(core::env_flag(name, fallback));
      }
      {
        const ScopedEnv env(name, "1");
        EXPECT_TRUE(core::env_flag(name, fallback));
      }
    }
    for (const char* bad : {"false", "true", "yes", "off", "01", " 1", "2"}) {
      const ScopedEnv env(name, bad);
      try {
        (void)core::env_flag(name, true);
        ADD_FAILURE() << "accepted " << name << "='" << bad << "'";
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string(name) + "='" + bad + "'"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("expected 0 or 1"), std::string::npos) << what;
      }
    }
  }
}

// The switches read the environment once, on first use, so each malformed
// value is exercised in a fresh process (threadsafe death tests re-execute
// the binary): the first read of the switch must throw, not default.  The
// child reports the exception through its exit code and stderr.
[[noreturn]] void read_switch_in_child(const char* name, const char* value,
                                       bool (*read)()) {
  setenv(name, value, 1);
  try {
    (void)read();
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::_Exit(3);
  }
  std::_Exit(0);
}

TEST(GemmEnvDeathTest, MalformedSwitchesThrowOnFirstUse) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(read_switch_in_child("MERSIT_GEMM", "false", gemm::enabled),
              ::testing::ExitedWithCode(3),
              "MERSIT_GEMM='false': expected 0 or 1");
  EXPECT_EXIT(
      read_switch_in_child("MERSIT_PREPACK", "no", gemm::prepack_enabled),
      ::testing::ExitedWithCode(3), "MERSIT_PREPACK='no': expected 0 or 1");
  EXPECT_EXIT(
      read_switch_in_child("MERSIT_FOLD_BN", "true", gemm::fold_bn_enabled),
      ::testing::ExitedWithCode(3), "MERSIT_FOLD_BN='true': expected 0 or 1");
}

}  // namespace
}  // namespace mersit::nn
