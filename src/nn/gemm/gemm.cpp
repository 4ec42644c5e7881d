// The GEMM driver: the dispatch switch, the elementwise entry, cache-blocked
// tiling, and the prepack machinery.  All register-tile work — packing
// panels and the micro-kernel — dispatches through the active SIMD backend
// (nn/gemm/backend.h); this TU stays ISA-agnostic.
#include "nn/gemm/gemm.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/aligned.h"
#include "core/scratch_arena.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/backend_impl.h"

namespace mersit::nn::gemm {

namespace {

/// The dispatch switch: off only while a test or bench runs the naive
/// reference loops as its oracle.
std::atomic<bool> g_enabled{true};

/// Problems below this many multiply-adds skip the packing machinery: a
/// direct m / k / n loop nest is faster there and keeps the identical
/// per-element ascending-k accumulation order (row-at-a-time, so the inner
/// n loop still vectorizes).  Sized for the per-head attention matmuls of
/// short sequences, which would otherwise spend more time packing than
/// multiplying.  Reads the raw operands directly, so it is backend-
/// independent by construction.
constexpr std::int64_t kSmallWork = 1 << 13;

void small_gemm(int M, int N, int K, const float* a, int lda, bool trans_a,
                const float* b, int ldb, bool trans_b, float* c, int ldc,
                Init init, const float* bias, Epilogue epi, const float* asc,
                const float* ash) {
  for (int m = 0; m < M; ++m) {
    float* row = c + static_cast<std::size_t>(m) * ldc;
    switch (init) {
      case Init::kZero:
        for (int n = 0; n < N; ++n) row[n] = 0.f;
        break;
      case Init::kBiasRow:
        for (int n = 0; n < N; ++n) row[n] = bias[m];
        break;
      case Init::kBiasCol:
        for (int n = 0; n < N; ++n) row[n] = bias[n];
        break;
      case Init::kAccumulate:
        break;
    }
    for (int k = 0; k < K; ++k) {
      const float av = detail::a_elem(a, lda, trans_a, m, k);
      for (int n = 0; n < N; ++n)
        row[n] += av * detail::b_elem(b, ldb, trans_b, k, n);
    }
    if (asc != nullptr) {
      const ScalarAffine aff{asc[m], ash[m]};
      epilogue_apply(epi, row, row, static_cast<std::size_t>(N), &aff);
    } else if (epi != Epilogue::kNone) {
      epilogue_apply(epi, row, row, static_cast<std::size_t>(N));
    }
  }
}

struct TileArgs {
  const Backend* be;
  int M, N, K;
  const float* a;
  int lda;
  bool trans_a;
  const float* b;
  int ldb;
  bool trans_b;
  float* c;
  int ldc;
  Init init;
  const float* bias;
  Epilogue epi;
  const PackedMatrix* pa;
  const PackedMatrix* pb;
  const float* asc;  ///< fused per-row affine scale (null when absent)
  const float* ash;  ///< fused per-row affine shift
};

/// Compute one (MC x NC) output tile end to end: init, then all KC panels
/// in ascending k order.  Per-call packing buffers come from the thread's
/// ScratchArena (released on return, reused by the next call); prepacked
/// operands skip the pack and index straight into their stored blocks,
/// which are byte-identical to what the backend's pack would write here.
void run_tile(const TileArgs& t, int m0, int mc, int n0, int nc) {
  const Backend& be = *t.be;
  float* c0 = t.c + static_cast<std::size_t>(m0) * t.ldc + n0;
  switch (t.init) {
    case Init::kZero:
      for (int m = 0; m < mc; ++m)
        for (int n = 0; n < nc; ++n) c0[static_cast<std::size_t>(m) * t.ldc + n] = 0.f;
      break;
    case Init::kBiasRow:
      for (int m = 0; m < mc; ++m) {
        const float v = t.bias[m0 + m];
        for (int n = 0; n < nc; ++n) c0[static_cast<std::size_t>(m) * t.ldc + n] = v;
      }
      break;
    case Init::kBiasCol:
      for (int m = 0; m < mc; ++m)
        for (int n = 0; n < nc; ++n)
          c0[static_cast<std::size_t>(m) * t.ldc + n] = t.bias[n0 + n];
      break;
    case Init::kAccumulate:
      break;  // start from the existing C
  }

  const int kc_max = std::min(t.K, be.kc);
  const int kblocks = (t.K + be.kc - 1) / be.kc;
  const int mpanels = (mc + be.mr - 1) / be.mr;
  const int npanels = (nc + be.nr - 1) / be.nr;
  core::ScratchArena& arena = core::ScratchArena::local();
  const core::ScratchArena::Scope scope(arena);
  float* abuf =
      t.pa != nullptr
          ? nullptr
          : arena.alloc(static_cast<std::size_t>(mpanels) * be.mr * kc_max);
  float* bbuf =
      t.pb != nullptr
          ? nullptr
          : arena.alloc(static_cast<std::size_t>(npanels) * be.nr * kc_max);

  for (int k0 = 0; k0 < t.K; k0 += be.kc) {
    const int kc = std::min(be.kc, t.K - k0);
    const int kb = k0 / be.kc;
    const float* apack = abuf;
    const float* bpack = bbuf;
    if (t.pa != nullptr) {
      apack = t.pa->data.data() +
              t.pa->block_off[static_cast<std::size_t>(m0 / be.mc) * kblocks + kb];
    } else {
      be.pack_a(t.a, t.lda, t.trans_a, m0, mc, k0, kc, abuf);
    }
    if (t.pb != nullptr) {
      bpack = t.pb->data.data() +
              t.pb->block_off[static_cast<std::size_t>(n0 / be.nc) * kblocks + kb];
    } else {
      be.pack_b(t.b, t.ldb, t.trans_b, k0, kc, n0, nc, bbuf);
    }
    MERSIT_ASSERT_ALIGNED(apack);
    MERSIT_ASSERT_ALIGNED(bpack);
    // The fused epilogue/affine fires only on the final k-block's
    // write-back, when every element of this tile has its complete
    // k-summation.
    const bool last = k0 + kc >= t.K;
    const Epilogue epi = last ? t.epi : Epilogue::kNone;
    for (int jp = 0; jp < nc; jp += be.nr) {
      const int nr = std::min(be.nr, nc - jp);
      const float* bp = bpack + static_cast<std::size_t>(jp / be.nr) * kc * be.nr;
      for (int ip = 0; ip < mc; ip += be.mr) {
        const int mr = std::min(be.mr, mc - ip);
        const float* ap = apack + static_cast<std::size_t>(ip / be.mr) * kc * be.mr;
        float* c = c0 + static_cast<std::size_t>(ip) * t.ldc + jp;
        const float* asc = (last && t.asc != nullptr) ? t.asc + m0 + ip : nullptr;
        const float* ash = asc != nullptr ? t.ash + m0 + ip : nullptr;
        be.micro(kc, ap, bp, c, t.ldc, mr, nr, epi, asc, ash);
      }
    }
  }
}

/// Shared skeleton of the four pack entry points: compute the block-offset
/// table for the active backend's tile geometry, then run `pack_block` per
/// (outer, k) cache block.  Every block's float count is rounded up to a
/// whole cache line so block starts stay 64-byte aligned inside the aligned
/// data vector; resize() zero-fills, so the rounding gaps hold
/// deterministic zeros and packs stay byte-comparable.
template <typename PackBlockFn>
PackedMatrix pack_generic(bool is_a, int other, int K, PackBlockFn&& pack_block) {
  const Backend& be = active_backend();
  PackedMatrix p;
  p.is_a = is_a;
  p.other = other;
  p.k = K;
  p.mr = be.mr;
  p.nr = be.nr;
  p.oc = is_a ? be.mc : be.nc;
  p.kc = be.kc;
  p.backend_id = be.id;
  if (other == 0 || K == 0) return p;
  const int reg = is_a ? be.mr : be.nr;  // panel register-tile extent
  const int oblocks = (other + p.oc - 1) / p.oc;
  const int kblocks = (K + be.kc - 1) / be.kc;
  constexpr std::size_t kLineFloats = core::kSimdAlign / sizeof(float);
  p.block_off.resize(static_cast<std::size_t>(oblocks) * kblocks);
  std::size_t total = 0;
  for (int ob = 0; ob < oblocks; ++ob) {
    const int oc = std::min(p.oc, other - ob * p.oc);
    const int panels = (oc + reg - 1) / reg;
    for (int kb = 0; kb < kblocks; ++kb) {
      const int kc = std::min(be.kc, K - kb * be.kc);
      p.block_off[static_cast<std::size_t>(ob) * kblocks + kb] = total;
      const std::size_t floats = static_cast<std::size_t>(panels) * reg * kc;
      total += (floats + kLineFloats - 1) / kLineFloats * kLineFloats;
    }
  }
  p.data.resize(total);
  MERSIT_ASSERT_ALIGNED(p.data.data());
  for (int ob = 0; ob < oblocks; ++ob) {
    const int o0 = ob * p.oc;
    const int oc = std::min(p.oc, other - o0);
    for (int kb = 0; kb < kblocks; ++kb) {
      const int k0 = kb * be.kc;
      const int kc = std::min(be.kc, K - k0);
      pack_block(be, o0, oc, k0, kc,
                 p.data.data() +
                     p.block_off[static_cast<std::size_t>(ob) * kblocks + kb]);
    }
  }
  return p;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool set_enabled(bool on) {
  return g_enabled.exchange(on, std::memory_order_relaxed);
}

bool set_prepack_enabled(bool on) {
  if (!on)
    throw std::invalid_argument(
        "the per-call-pack inference mode was removed; inference always "
        "prepacks and fuses");
  return true;
}

bool set_fold_bn_enabled(bool on) {
  if (on)
    throw std::invalid_argument(
        "BN weight folding was removed; conv+BN fuses as the bit-exact "
        "affine write-back");
  return false;
}

void epilogue_apply(Epilogue e, const float* src, float* dst, std::size_t n,
                    const ScalarAffine* affine) {
  active_backend().elementwise(e, src, dst, n, affine);
}

void epilogue_apply_rows(Epilogue e, const float* src, float* dst,
                         std::size_t rows, std::size_t len, const float* scale,
                         const float* shift) {
  active_backend().elementwise_rows(e, src, dst, rows, len, scale, shift);
}

PackedMatrix pack_a_matrix(int M, int K, const float* A, int lda, bool trans_a) {
  if (M < 0 || K < 0)
    throw std::invalid_argument("pack_a_matrix: negative dim");
  return pack_generic(/*is_a=*/true, M, K,
                      [&](const Backend& be, int m0, int mc, int k0, int kc,
                          float* dst) {
                        be.pack_a(A, lda, trans_a, m0, mc, k0, kc, dst);
                      });
}

PackedMatrix pack_b_matrix(int K, int N, const float* B, int ldb, bool trans_b) {
  if (K < 0 || N < 0)
    throw std::invalid_argument("pack_b_matrix: negative dim");
  return pack_generic(/*is_a=*/false, N, K,
                      [&](const Backend& be, int n0, int nc, int k0, int kc,
                          float* dst) {
                        be.pack_b(B, ldb, trans_b, k0, kc, n0, nc, dst);
                      });
}

PackedMatrix pack_a_codes(int M, int K, const std::uint8_t* A, int lda,
                          bool trans_a, const double* lut,
                          const double* scales) {
  if (M < 0 || K < 0) throw std::invalid_argument("pack_a_codes: negative dim");
  return pack_generic(/*is_a=*/true, M, K,
                      [&](const Backend& be, int m0, int mc, int k0, int kc,
                          float* dst) {
                        be.pack_a_codes(A, lda, trans_a, lut, scales, m0, mc,
                                        k0, kc, dst);
                      });
}

PackedMatrix pack_b_codes(int K, int N, const std::uint8_t* B, int ldb,
                          bool trans_b, const double* lut,
                          const double* scales) {
  if (K < 0 || N < 0) throw std::invalid_argument("pack_b_codes: negative dim");
  return pack_generic(/*is_a=*/false, N, K,
                      [&](const Backend& be, int n0, int nc, int k0, int kc,
                          float* dst) {
                        be.pack_b_codes(B, ldb, trans_b, lut, scales, k0, kc,
                                        n0, nc, dst);
                      });
}

void decode_codes(const std::uint8_t* codes, std::size_t n, const double* lut,
                  const double* scales, std::size_t per_channel, float* out) {
  if (per_channel == 0) throw std::invalid_argument("decode_codes: empty channel");
  for (std::size_t c = 0; c * per_channel < n; ++c) {
    const double scale = scales[c];
    const std::size_t lo = c * per_channel;
    const std::size_t hi = std::min(n, lo + per_channel);
    for (std::size_t i = lo; i < hi; ++i)
      out[i] = static_cast<float>(lut[codes[i]] * scale);
  }
}

void sgemm(int M, int N, int K, const float* A, int lda, bool trans_a,
           const float* B, int ldb, bool trans_b, float* C, int ldc, Init init,
           const float* bias, core::ThreadPool* pool, Epilogue epilogue,
           const PackedMatrix* packed_a, const PackedMatrix* packed_b,
           const RowAffine* affine) {
  if (M < 0 || N < 0 || K < 0) throw std::invalid_argument("sgemm: negative dim");
  if (M == 0 || N == 0) return;
  if ((init == Init::kBiasRow || init == Init::kBiasCol) && bias == nullptr)
    throw std::invalid_argument("sgemm: bias init without bias pointer");
  if ((epilogue != Epilogue::kNone || affine != nullptr) &&
      init == Init::kAccumulate)
    throw std::invalid_argument("sgemm: epilogue over an incomplete accumulation");
  if (affine != nullptr && (affine->scale == nullptr || affine->shift == nullptr))
    throw std::invalid_argument("sgemm: affine with null scale/shift");
  if (packed_a != nullptr && (!packed_a->is_a || packed_a->other != M || packed_a->k != K))
    throw std::invalid_argument("sgemm: packed A does not match the call shape");
  if (packed_b != nullptr && (packed_b->is_a || packed_b->other != N || packed_b->k != K))
    throw std::invalid_argument("sgemm: packed B does not match the call shape");
  const Backend& be = active_backend();
  // Panel layouts are backend-specific; a pack built under a different
  // backend (different Backend::id) would be misindexed here, so refuse it.
  // The layer-side caches key on the backend id exactly so this never fires
  // in normal operation.
  if (packed_a != nullptr && !packed_a->empty() && packed_a->backend_id != be.id)
    throw std::invalid_argument(
        std::string("sgemm: packed A was built for another backend; active is '") +
        be.name + "'");
  if (packed_b != nullptr && !packed_b->empty() && packed_b->backend_id != be.id)
    throw std::invalid_argument(
        std::string("sgemm: packed B was built for another backend; active is '") +
        be.name + "'");
  const float* asc = affine != nullptr ? affine->scale : nullptr;
  const float* ash = affine != nullptr ? affine->shift : nullptr;

  if (static_cast<std::int64_t>(M) * N * K <= kSmallWork) {
    // The direct path reads the raw operands; values are identical to the
    // packed panels, so skipping them changes nothing observable.
    small_gemm(M, N, K, A, lda, trans_a, B, ldb, trans_b, C, ldc, init, bias,
               epilogue, asc, ash);
    return;
  }

  const TileArgs t{&be,  M,    N,   K,    A,        lda,      trans_a,  B,
                   ldb,  trans_b,   C,    ldc,      init,     bias,
                   epilogue, packed_a, packed_b, asc,   ash};
  const int mtiles = (M + be.mc - 1) / be.mc;
  const int ntiles = (N + be.nc - 1) / be.nc;
  const std::size_t tiles = static_cast<std::size_t>(mtiles) * ntiles;
  const auto tile = [&t, &be, ntiles](std::size_t idx) {
    const int mb = static_cast<int>(idx) / ntiles;
    const int nb = static_cast<int>(idx) % ntiles;
    const int m0 = mb * be.mc;
    const int n0 = nb * be.nc;
    run_tile(t, m0, std::min(be.mc, t.M - m0), n0, std::min(be.nc, t.N - n0));
  };
  if (tiles == 1) {
    tile(0);  // skip the pool round-trip for the common tiny-matrix case
    return;
  }
  core::ThreadPool& p = pool != nullptr ? *pool : core::global_pool();
  p.parallel_for(tiles, tile);
}

}  // namespace mersit::nn::gemm
