// The inference-runtime layer on top of the GEMM kernel: prepacked weight
// operands, fused epilogues and the per-row BN affine, the version-stamped
// pack caches behind Conv2d/Linear, and the thread-local scratch arena.
//
// The contract under test is strict bit-identity: a prepacked operand is
// byte-identical to what the per-call path packs, and the fused write-back
// applies the same per-element formulas the standalone module passes do —
// so every comparison here demands bitwise equality except the explicitly
// tolerance-based MERSIT_FOLD_BN path (weight folding reassociates
// rounding and is opt-in for exactly that reason).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <vector>

#include "core/registry.h"
#include "core/scratch_arena.h"
#include "core/thread_pool.h"
#include "nn/gemm/gemm.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/train.h"
#include "ptq/ptq.h"

namespace mersit::nn {
namespace {

// Give the global pool real fan-out even on single-core CI (respects an
// explicit MERSIT_THREADS from the environment).
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

/// Restores the prepack/fusion switch on scope exit.
struct PrepackGuard {
  explicit PrepackGuard(bool on) : prev(gemm::set_prepack_enabled(on)) {}
  ~PrepackGuard() { gemm::set_prepack_enabled(prev); }
  bool prev;
};

/// Restores the BN-folding switch on scope exit.
struct FoldGuard {
  explicit FoldGuard(bool on) : prev(gemm::set_fold_bn_enabled(on)) {}
  ~FoldGuard() { gemm::set_fold_bn_enabled(prev); }
  bool prev;
};

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]))
      return false;
  return true;
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

Tensor random_tensor(std::vector<int> shape, std::mt19937& rng) {
  Tensor t(std::move(shape));
  std::normal_distribution<float> dist(0.f, 1.f);
  for (auto& x : t.data()) x = dist(rng);
  return t;
}

/// Give a BN non-trivial inference behaviour: randomized affine parameters
/// and running statistics (variance kept well positive).
void randomize_bn(BatchNorm2d& bn, std::mt19937& rng) {
  std::normal_distribution<float> nd(0.f, 0.7f);
  std::uniform_real_distribution<float> ud(0.4f, 2.5f);
  for (auto& v : bn.gamma.value.data()) v = 1.f + 0.3f * nd(rng);
  for (auto& v : bn.beta.value.data()) v = nd(rng);
  for (auto& v : bn.running_mean.data()) v = nd(rng);
  for (auto& v : bn.running_var.data()) v = ud(rng);
  bn.gamma.bump_version();
  bn.beta.bump_version();
}

Tensor eval_forward(Module& m, const Tensor& x) {
  const Context ctx{};
  return m.forward(x, ctx);
}

/// The reference the fused paths must reproduce: the same module graph run
/// with prepacking/fusion off (separate conv, BN, activation passes).
Tensor unfused_forward(Module& m, const Tensor& x) {
  const PrepackGuard guard(false);
  return eval_forward(m, x);
}

// ------------------------------------------------------------- the kernel --

TEST(PrepackKernel, PackedOperandsBitwiseMatchPerCallPacking) {
  ASSERT_TRUE(kEnvReady);
  std::mt19937 rng(11);
  // Small shapes take the direct path (which ignores the packs); the larger
  // ones cross the blocking thresholds (kMC=120 rows, kNC=1024 columns) so
  // multi-block pack indexing is exercised too.
  const int shapes[][3] = {
      {5, 7, 3}, {37, 41, 23}, {64, 80, 40}, {130, 70, 33}, {48, 1040, 20}};
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    for (const bool ta : {false, true}) {
      for (const bool tb : {false, true}) {
        const int lda = ta ? M : K;
        const int ldb = tb ? K : N;
        const auto A = random_vec(static_cast<std::size_t>(ta ? K : M) * lda, rng);
        const auto B = random_vec(static_cast<std::size_t>(tb ? N : K) * ldb, rng);
        const auto bias = random_vec(static_cast<std::size_t>(M), rng);
        const gemm::PackedMatrix pa = gemm::pack_a_matrix(M, K, A.data(), lda, ta);
        const gemm::PackedMatrix pb = gemm::pack_b_matrix(K, N, B.data(), ldb, tb);

        std::vector<float> plain(static_cast<std::size_t>(M) * N);
        gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb, plain.data(),
                    N, gemm::Init::kBiasRow, bias.data());
        const gemm::PackedMatrix* combos[][2] = {
            {&pa, nullptr}, {nullptr, &pb}, {&pa, &pb}};
        for (const auto& c : combos) {
          std::vector<float> out(plain.size(), -1.f);
          gemm::sgemm(M, N, K, A.data(), lda, ta, B.data(), ldb, tb, out.data(),
                      N, gemm::Init::kBiasRow, bias.data(), nullptr,
                      gemm::Epilogue::kNone, c[0], c[1]);
          EXPECT_TRUE(bitwise_equal(out, plain))
              << "M=" << M << " N=" << N << " K=" << K << " ta=" << ta
              << " tb=" << tb << " pa=" << (c[0] != nullptr)
              << " pb=" << (c[1] != nullptr);
        }
      }
    }
  }
}

TEST(PrepackKernel, ThreadCountInvariantWithPackedOperands) {
  std::mt19937 rng(12);
  const int M = 150, N = 1100, K = 40;
  const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
  const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
  const gemm::PackedMatrix pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
  const gemm::PackedMatrix pb = gemm::pack_b_matrix(K, N, B.data(), N, false);
  std::vector<std::vector<float>> outs;
  for (const int threads : {1, 2, 5}) {
    core::ThreadPool pool(threads);
    std::vector<float> out(static_cast<std::size_t>(M) * N);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, out.data(), N,
                gemm::Init::kZero, nullptr, &pool, gemm::Epilogue::kNone, &pa,
                &pb);
    outs.push_back(std::move(out));
  }
  EXPECT_TRUE(bitwise_equal(outs[0], outs[1]));
  EXPECT_TRUE(bitwise_equal(outs[0], outs[2]));
}

TEST(PrepackKernel, FusedEpilogueAndAffineBitwiseMatchSeparatePasses) {
  std::mt19937 rng(13);
  using gemm::Epilogue;
  const Epilogue kinds[] = {Epilogue::kReLU, Epilogue::kReLU6, Epilogue::kSiLU,
                            Epilogue::kHardSwish, Epilogue::kGELU};
  // One blocked-path shape (with edge tiles) and one direct-path shape.
  const int shapes[][3] = {{37, 41, 23}, {4, 5, 6}};
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    const auto A = random_vec(static_cast<std::size_t>(M) * K, rng);
    const auto B = random_vec(static_cast<std::size_t>(K) * N, rng);
    const auto bias = random_vec(static_cast<std::size_t>(M), rng);
    const auto scale = random_vec(static_cast<std::size_t>(M), rng);
    const auto shift = random_vec(static_cast<std::size_t>(M), rng);
    const gemm::PackedMatrix pa = gemm::pack_a_matrix(M, K, A.data(), K, false);
    std::vector<float> base(static_cast<std::size_t>(M) * N);
    gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false, base.data(),
                N, gemm::Init::kBiasRow, bias.data());
    for (const Epilogue epi : kinds) {
      const gemm::RowAffine aff{scale.data(), shift.data()};
      for (const bool with_affine : {false, true}) {
        std::vector<float> fused(base.size());
        gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                    fused.data(), N, gemm::Init::kBiasRow, bias.data(),
                    nullptr, epi, &pa, nullptr, with_affine ? &aff : nullptr);
        // Reference: the separate passes the modules would run — affine,
        // then the activation, per element.
        std::vector<float> ref = base;
        for (int m = 0; m < M; ++m)
          for (int n = 0; n < N; ++n) {
            float& v = ref[static_cast<std::size_t>(m) * N + n];
            if (with_affine) v = scale[m] * v + shift[m];
            v = gemm::epilogue_eval(epi, v);
          }
        EXPECT_TRUE(bitwise_equal(fused, ref))
            << "M=" << M << " epi=" << static_cast<int>(epi)
            << " affine=" << with_affine;
      }
    }
  }
}

TEST(PrepackKernel, EpilogueApplyMatchesPerElementEval) {
  std::mt19937 rng(14);
  const auto src = random_vec(257, rng);
  using gemm::Epilogue;
  for (const Epilogue epi : {Epilogue::kNone, Epilogue::kReLU, Epilogue::kReLU6,
                             Epilogue::kSiLU, Epilogue::kHardSwish,
                             Epilogue::kGELU}) {
    std::vector<float> dst(src.size());
    gemm::epilogue_apply(epi, src.data(), dst.data(), static_cast<int>(src.size()));
    std::vector<float> ref(src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
      ref[i] = gemm::epilogue_eval(epi, src[i]);
    EXPECT_TRUE(bitwise_equal(dst, ref)) << static_cast<int>(epi);
  }
}

TEST(PrepackKernel, InvalidCombinationsThrow) {
  std::mt19937 rng(15);
  const int M = 4, N = 4, K = 4;
  const auto A = random_vec(16, rng);
  const auto B = random_vec(16, rng);
  std::vector<float> C(16, 0.f);
  const auto scale = random_vec(4, rng);
  // An epilogue or affine over a partial accumulation would fire before the
  // element sums are complete.
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           C.data(), N, gemm::Init::kAccumulate, nullptr,
                           nullptr, gemm::Epilogue::kReLU),
               std::invalid_argument);
  const gemm::RowAffine aff{scale.data(), scale.data()};
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           C.data(), N, gemm::Init::kAccumulate, nullptr,
                           nullptr, gemm::Epilogue::kNone, nullptr, nullptr,
                           &aff),
               std::invalid_argument);
  const gemm::RowAffine half{scale.data(), nullptr};
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           C.data(), N, gemm::Init::kZero, nullptr, nullptr,
                           gemm::Epilogue::kNone, nullptr, nullptr, &half),
               std::invalid_argument);
  // A pack built for a different shape must be rejected, not silently read.
  // (Packed from its own (M+1) x K source: packing A itself would read past
  // its 16 elements.)
  const auto A_tall = random_vec((M + 1) * K, rng);
  const gemm::PackedMatrix wrong =
      gemm::pack_a_matrix(M + 1, K, A_tall.data(), K, false);
  EXPECT_THROW(gemm::sgemm(M, N, K, A.data(), K, false, B.data(), N, false,
                           C.data(), N, gemm::Init::kZero, nullptr, nullptr,
                           gemm::Epilogue::kNone, &wrong),
               std::invalid_argument);
}

// ------------------------------------------------------------- the layers --

TEST(LayerPrepack, ConvAndLinearForwardsBitwiseAcrossPrepackModes) {
  std::mt19937 rng(21);
  struct Case {
    const char* name;
    int in, out, k, stride, pad, groups;
  };
  const Case cases[] = {
      {"3x3", 3, 16, 3, 1, 1, 1},     {"1x1-unit", 8, 16, 1, 1, 0, 1},
      {"grouped", 8, 12, 3, 2, 1, 2}, {"depthwise", 8, 8, 3, 1, 1, 8}};
  for (const Case& c : cases) {
    Conv2d conv(c.in, c.out, c.k, c.stride, c.pad, c.groups, rng);
    const Tensor x = random_tensor({2, c.in, 12, 12}, rng);
    const Tensor y_off = unfused_forward(conv, x);
    Tensor y_naive;
    {
      const GemmGuard guard(false);
      y_naive = eval_forward(conv, x);
    }
    const PrepackGuard guard(true);
    const Tensor y_on = eval_forward(conv, x);
    const Tensor y_warm = eval_forward(conv, x);  // served from the cache
    EXPECT_TRUE(bitwise_equal(y_on.data(), y_off.data())) << c.name;
    EXPECT_TRUE(bitwise_equal(y_on.data(), y_naive.data())) << c.name;
    EXPECT_TRUE(bitwise_equal(y_on.data(), y_warm.data())) << c.name;
  }
  Linear lin(48, 33, rng);
  const Tensor x = random_tensor({4, 48}, rng);
  const Tensor y_off = unfused_forward(lin, x);
  const PrepackGuard guard(true);
  const Tensor y_on = eval_forward(lin, x);
  const Tensor y_warm = eval_forward(lin, x);
  EXPECT_TRUE(bitwise_equal(y_on.data(), y_off.data()));
  EXPECT_TRUE(bitwise_equal(y_on.data(), y_warm.data()));
}

TEST(LayerPrepack, SequentialBnActFusionBitwiseMatchesModulePasses) {
  std::mt19937 rng(22);
  // Conv -> BN -> act chains covering every fusable activation plus one
  // non-fusable tail (sigmoid), a unit conv, and a depthwise conv (whose
  // BN/act fuse into the direct loop's second pass instead of the GEMM).
  auto seq = std::make_unique<Sequential>();
  const struct {
    const char* prefix;
    int in, out, k, pad, groups;
    Act a;
  } chain[] = {{"c1", 3, 12, 3, 1, 1, Act::kSiLU},
               {"c2", 12, 12, 1, 0, 1, Act::kReLU6},
               {"c3", 12, 12, 3, 1, 12, Act::kHardSwish},
               {"c4", 12, 10, 3, 1, 2, Act::kReLU},
               {"c5", 10, 8, 1, 0, 1, Act::kSigmoid}};
  for (const auto& l : chain) {
    seq->add(std::string(l.prefix) + "_conv",
             std::make_unique<Conv2d>(l.in, l.out, l.k, 1, l.pad, l.groups, rng));
    auto bn = std::make_unique<BatchNorm2d>(l.out);
    randomize_bn(*bn, rng);
    seq->add(std::string(l.prefix) + "_bn", std::move(bn));
    seq->add(std::string(l.prefix) + "_act", std::make_unique<Activation>(l.a));
  }
  const Tensor x = random_tensor({2, 3, 10, 10}, rng);
  const Tensor y_ref = unfused_forward(*seq, x);
  const PrepackGuard guard(true);
  const Tensor y_fused = eval_forward(*seq, x);
  const Tensor y_warm = eval_forward(*seq, x);
  EXPECT_TRUE(bitwise_equal(y_fused.data(), y_ref.data()));
  EXPECT_TRUE(bitwise_equal(y_fused.data(), y_warm.data()));
}

TEST(LayerPrepack, FoldBnStaysWithinToleranceOfUnfused) {
  std::mt19937 rng(23);
  auto seq = std::make_unique<Sequential>();
  seq->add("conv", std::make_unique<Conv2d>(3, 16, 3, 1, 1, 1, rng));
  auto bn = std::make_unique<BatchNorm2d>(16);
  randomize_bn(*bn, rng);
  seq->add("bn", std::move(bn));
  seq->add("act", std::make_unique<Activation>(Act::kReLU));
  const Tensor x = random_tensor({2, 3, 12, 12}, rng);
  const Tensor y_ref = unfused_forward(*seq, x);
  const PrepackGuard pguard(true);
  const FoldGuard fguard(true);
  const Tensor y_fold = eval_forward(*seq, x);
  const Tensor y_warm = eval_forward(*seq, x);  // folded weights are cached
  // Folding reassociates the rounding, so tolerance — not bitwise.
  EXPECT_LT(max_abs_diff(y_fold.data(), y_ref.data()), 2e-3f);
  EXPECT_TRUE(bitwise_equal(y_fold.data(), y_warm.data()));
}

TEST(LayerPrepack, BnFusedForwardRejectsFoldedAndMismatchedBn) {
  std::mt19937 rng(24);
  Conv2d conv(3, 8, 3, 1, 1, 1, rng);
  const Tensor x = random_tensor({1, 3, 8, 8}, rng);
  const Context ctx{};
  BatchNorm2d mismatched(4);
  EXPECT_THROW(conv.forward_bn_fused(x, ctx, mismatched, gemm::Epilogue::kNone),
               std::invalid_argument);
  BatchNorm2d bn(8);
  bn.fold_into(conv);
  EXPECT_THROW(conv.forward_bn_fused(x, ctx, bn, gemm::Epilogue::kNone),
               std::logic_error);
}

TEST(LayerPrepack, QuantizeAndRestoreInvalidateStalePacks) {
  std::mt19937 rng(25);
  Conv2d conv(3, 16, 3, 1, 1, 1, rng);
  const Tensor x = random_tensor({2, 3, 12, 12}, rng);
  const PrepackGuard guard(true);
  const Tensor y0 = eval_forward(conv, x);  // warms the pack cache
  EXPECT_TRUE(bitwise_equal(y0.data(), unfused_forward(conv, x).data()));

  const ptq::WeightSnapshot snap = ptq::snapshot_weights(conv);
  const auto fmt = core::make_format("MERSIT(8,2)");
  ptq::quantize_weights_per_channel(conv, *fmt,
                                    formats::ScalePolicy::kMaxToUnity);
  // A stale pack would reproduce y0 here; the version bump must force a
  // repack of the quantized weights.
  const Tensor y_q = eval_forward(conv, x);
  EXPECT_FALSE(bitwise_equal(y_q.data(), y0.data()));
  EXPECT_TRUE(bitwise_equal(y_q.data(), unfused_forward(conv, x).data()));

  ptq::restore_weights(conv, snap);
  const Tensor y_r = eval_forward(conv, x);
  EXPECT_TRUE(bitwise_equal(y_r.data(), y0.data()));
}

TEST(LayerPrepack, OptimizerStepInvalidatesStalePacks) {
  std::mt19937 rng(26);
  Conv2d conv(3, 12, 3, 1, 1, 1, rng);
  const Tensor x = random_tensor({2, 3, 12, 12}, rng);
  const PrepackGuard guard(true);
  const Tensor y0 = eval_forward(conv, x);  // warms the pack cache

  const Context train_ctx{/*train=*/true};
  const Tensor y_train = conv.forward(x, train_ctx);
  conv.backward(Tensor(y_train.shape(), 1.f));
  Adam opt(conv.parameters(), /*lr=*/0.05f);
  opt.step();

  const Tensor y1 = eval_forward(conv, x);
  EXPECT_FALSE(bitwise_equal(y1.data(), y0.data()));
  EXPECT_TRUE(bitwise_equal(y1.data(), unfused_forward(conv, x).data()));
}

TEST(LayerPrepack, CloneDoesNotSharePacksWithItsSource) {
  std::mt19937 rng(27);
  Conv2d conv(3, 12, 3, 1, 1, 1, rng);
  const Tensor x = random_tensor({2, 3, 12, 12}, rng);
  const PrepackGuard guard(true);
  const Tensor y0 = eval_forward(conv, x);  // parent cache is warm

  const ModulePtr copy = conv.clone();
  // Mutate the parent's weights in place through the quantization seam.
  for (int c = 0; c < conv.weight_channels(); ++c)
    for (float& v : conv.channel_span(c)) v *= 2.f;
  conv.weight_param().bump_version();

  // The parent repacks its mutated weights; the clone must still see the
  // original values — a shared pack (or a clone serving the parent's stale
  // panels) would break one of the two.
  const Tensor y_parent = eval_forward(conv, x);
  const Tensor y_clone = eval_forward(*copy, x);
  EXPECT_FALSE(bitwise_equal(y_parent.data(), y0.data()));
  EXPECT_TRUE(bitwise_equal(y_parent.data(), unfused_forward(conv, x).data()));
  EXPECT_TRUE(bitwise_equal(y_clone.data(), y0.data()));
}

// -------------------------------------------------------------- the arena --

TEST(ScratchArena, ScopesAreLifoWithStablePointers) {
  core::ScratchArena arena;
  EXPECT_EQ(arena.alloc(0), nullptr);
  const core::ScratchArena::Scope outer(arena);
  float* a = arena.alloc(100);
  for (int i = 0; i < 100; ++i) a[i] = static_cast<float>(i);
  float* inner_ptr = nullptr;
  {
    const core::ScratchArena::Scope inner(arena);
    inner_ptr = arena.alloc(50);
    for (int i = 0; i < 50; ++i) inner_ptr[i] = -1.f;
  }
  // The inner scope's space is reusable once it ends...
  float* b = arena.alloc(50);
  EXPECT_EQ(b, inner_ptr);
  // ...and growth appends blocks without moving earlier allocations.
  float* big = arena.alloc(std::size_t{1} << 16);
  big[0] = 1.f;
  for (int i = 0; i < 100; ++i)
    ASSERT_EQ(a[i], static_cast<float>(i)) << "grow moved a live allocation";
}

TEST(ScratchArena, SteadyStateReusesCapacity) {
  core::ScratchArena arena;
  for (int warm = 0; warm < 3; ++warm) {
    const core::ScratchArena::Scope scope(arena);
    (void)arena.alloc(2000);
    (void)arena.alloc(3000);
  }
  const std::size_t cap = arena.capacity_bytes();
  EXPECT_GT(cap, 0u);
  for (int i = 0; i < 100; ++i) {
    const core::ScratchArena::Scope scope(arena);
    float* p = arena.alloc(2000);
    float* q = arena.alloc(3000);
    p[0] = q[0] = static_cast<float>(i);
  }
  EXPECT_EQ(arena.capacity_bytes(), cap) << "steady state should not grow";
}

TEST(ScratchArena, NestedParallelForKeepsPerTaskBuffersDisjoint) {
  core::ThreadPool pool(4);
  std::atomic<int> errors{0};
  pool.parallel_for(8, [&](std::size_t task) {
    core::ScratchArena& arena = core::ScratchArena::local();
    const core::ScratchArena::Scope scope(arena);
    float* buf = arena.alloc(256);
    const float tag = static_cast<float>(task + 1);
    for (int i = 0; i < 256; ++i) buf[i] = tag;
    // Nested regions run inline on this thread and share its arena; their
    // scopes must nest without clobbering the outer allocation.
    pool.parallel_for(4, [&](std::size_t j) {
      const core::ScratchArena::Scope inner_scope(arena);
      float* inner = arena.alloc(64);
      const float itag = tag * 100.f + static_cast<float>(j);
      for (int i = 0; i < 64; ++i) inner[i] = itag;
      for (int i = 0; i < 64; ++i)
        if (inner[i] != itag) errors.fetch_add(1);
    });
    for (int i = 0; i < 256; ++i)
      if (buf[i] != tag) errors.fetch_add(1);
  });
  EXPECT_EQ(errors.load(), 0);
}

}  // namespace
}  // namespace mersit::nn
