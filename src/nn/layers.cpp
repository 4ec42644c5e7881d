#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/scratch_arena.h"
#include "core/thread_pool.h"
#include "nn/gemm/backend.h"
#include "nn/gemm/gemm.h"
#include "nn/gemm/im2col.h"
#include "nn/gemm/qgemm.h"
#include "nn/qweights.h"

namespace mersit::nn {

namespace {

/// The installed code-domain weights, when the layer should run from them:
/// inference only and MERSIT_QGEMM != float.  The snapshot is taken once
/// per forward; everything derived (decoded floats, packs, the cache
/// identity) comes from this one instance, so a concurrent swap can only
/// yield a fully-old or fully-new view, never a mix.
std::shared_ptr<const WeightCodes> active_codes(const ChannelWeights& cw,
                                                const Context& ctx) {
  if (ctx.train || gemm::qgemm_mode() == gemm::QgemmMode::kFloat)
    return nullptr;
  return cw.weight_codes();
}

void check_codes(const WeightCodes& wc, int channels, int per_channel,
                 const char* who) {
  if (wc.channels != channels || wc.per_channel != per_channel ||
      wc.codes.size() != static_cast<std::size_t>(channels) * per_channel ||
      wc.scales.size() != static_cast<std::size_t>(channels))
    throw std::invalid_argument(std::string(who) +
                                ": weight codes do not match the layer shape");
}

/// What a PackCache entry holds: float panels (packed from the FP32
/// weights, or decoded from codes alongside the decoded array) or int8
/// level panels with their dequant scales.
enum class PackKind : std::uint64_t { kFloat = 0, kInt8 = 1 };

/// Cache identity of one PackCache entry.  All entries share the weight
/// Param's version, so the identity names everything else they were built
/// from: the process-unique WeightCodes id (0 for the FP32 weights; code
/// ids are never 0), the entry kind (a mode flip between code and int8 must
/// not serve the other's panels), and the active GEMM backend's id (< 16),
/// so switching MERSIT_BACKEND rebuilds instead of serving a foreign-layout
/// pack (sgemm would reject it loudly).  Entries are only built in
/// inference (weights move every training step), and every entry of a
/// non-depthwise layer carries its packs — built even while the naive loops
/// run — so flipping gemm::set_enabled never leaves a pack-less entry.
std::uint64_t cache_identity(const WeightCodes* wc, PackKind kind) {
  return ((wc != nullptr ? wc->id : 0) << 5) |
         (static_cast<std::uint64_t>(kind) << 4) |
         static_cast<std::uint64_t>(gemm::active_backend().id);
}

/// The FP32 image of installed codes: bit-identical to the
/// quantize→dequantize weights.
std::vector<float> decoded_weights(const WeightCodes& wc,
                                   std::size_t per_channel) {
  std::vector<float> w(wc.codes.size());
  gemm::decode_codes(wc.codes.data(), wc.codes.size(), wc.lut,
                     wc.scales.data(), per_channel, w.data());
  return w;
}

/// Per-channel int8 dequant scales AffineLut::scale * WeightCodes::scales[ch].
std::vector<double> int8_scales(const WeightCodes& wc) {
  std::vector<double> s(wc.scales.size());
  for (std::size_t o = 0; o < s.size(); ++o) s[o] = wc.affine->scale * wc.scales[o];
  return s;
}

/// Kulisch eligibility for one forward: opt-in mode, exact table available,
/// an encode hook to recover activation codes, a stamped activation scale,
/// and no non-finite weight codes (their products are undefined in fixed
/// point).  Anything missing falls back to code mode, which is
/// bit-identical to the FP32 default anyway.
bool kulisch_ok(const WeightCodes& wc, const Tensor& x) {
  return gemm::qgemm_mode() == gemm::QgemmMode::kKulisch &&
         wc.kulisch != nullptr && wc.kulisch->usable && wc.encode != nullptr &&
         wc.nonfinite == 0 && x.quant_scale() > 0.0 && gemm::enabled();
}

/// Int8 eligibility for one forward: opt-in mode, an exactly affine decode
/// LUT, a stamped activation scale to quantize against, and no non-finite
/// weight codes (a NaR level has no integer value).  Callers additionally
/// bound K ≤ gemm::kInt8MaxK (exact int32 accumulation).  Anything missing
/// falls back to code mode, silently — same contract as Kulisch fallback.
bool int8_ok(const WeightCodes& wc, const Tensor& x) {
  return gemm::qgemm_mode() == gemm::QgemmMode::kInt8 &&
         wc.affine != nullptr && wc.affine->usable && wc.nonfinite == 0 &&
         x.quant_scale() > 0.0 && gemm::enabled();
}

/// The fused-epilogue equivalent of an Act kind, or kNone when the kind has
/// no epilogue (sigmoid/tanh never directly follow a conv/linear here).
gemm::Epilogue epilogue_for(Act a) {
  switch (a) {
    case Act::kReLU: return gemm::Epilogue::kReLU;
    case Act::kReLU6: return gemm::Epilogue::kReLU6;
    case Act::kSiLU: return gemm::Epilogue::kSiLU;
    case Act::kHardSwish: return gemm::Epilogue::kHardSwish;
    case Act::kGELU: return gemm::Epilogue::kGELU;
    default: return gemm::Epilogue::kNone;
  }
}

}  // namespace

bool fuse_inference_ok(const Context& ctx) {
  return !ctx.train && ctx.quant == nullptr && gemm::enabled();
}

// ---------------------------------------------------------------- Linear ---

Linear::Linear(int in, int out, std::mt19937& rng)
    : weight(Tensor::randn({out, in}, rng, std::sqrt(2.f / static_cast<float>(in)))),
      bias(Tensor::zeros({out})),
      in_(in),
      out_(out) {}

void Linear::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight);
  out.push_back(&bias);
}

std::span<float> Linear::channel_span(int c) {
  return weight.value.data().subspan(static_cast<std::size_t>(c) * static_cast<std::size_t>(in_),
                                     static_cast<std::size_t>(in_));
}

Tensor Linear::forward(const Tensor& x, const Context& ctx) {
  return forward_fused(x, ctx, gemm::Epilogue::kNone);
}

Tensor Linear::forward_fused(const Tensor& x, const Context& ctx,
                             gemm::Epilogue epi) {
  const int n = x.dim(0);
  if (x.dim(1) != in_) throw std::invalid_argument("Linear: width mismatch");
  const auto wc = active_codes(*this, ctx);
  if (wc != nullptr) {
    check_codes(*wc, out_, in_, "Linear");
    if (kulisch_ok(*wc, x)) {
      // Exact path: recover the activation codes by re-encoding the already
      // fake-quantized values at their stamped scale (encode(v / scale) is
      // idempotent on decoded values), then run weight codes × activation
      // codes through the software quire.
      const double xscale = x.quant_scale();
      const double xinv = 1.0 / xscale;
      std::vector<std::uint8_t> xcodes(static_cast<std::size_t>(n) * in_);
      const float* xd = x.raw();
      for (std::size_t i = 0; i < xcodes.size(); ++i)
        xcodes[i] = wc->encode(static_cast<double>(xd[i]) * xinv);
      Tensor y({n, out_});
      const gemm::QOperand a{xcodes.data(), in_, /*trans=*/false, nullptr, xscale};
      const gemm::QOperand b{wc->codes.data(), in_, /*trans=*/true,
                             wc->scales.data(), 0.0};
      gemm::qgemm_kulisch(n, out_, in_, a, b, *wc->kulisch,
                          gemm::Init::kBiasCol, bias.value.raw(), y.raw(), out_,
                          epi);
      return y;
    }
    if (int8_ok(*wc, x) && in_ <= gemm::kInt8MaxK) {
      // Decode-free path: weight codes remap to int8 levels in the pack
      // step, activations quantize straight to the same level grid at the
      // GEMM boundary (exact on already-fake-quantized values), and the
      // kernel accumulates level products in int32 — both operands move as
      // 8-bit codes and the only float math is the dequant write-back.
      const gemm::AffineLut& alut = *wc->affine;
      const double xscale = x.quant_scale();
      const PackedWeights& cached = packs_.get(
          weight, cache_identity(wc.get(), PackKind::kInt8), [&] {
            PackedWeights pw;
            pw.iscales = int8_scales(*wc);
            pw.ipacks.push_back(gemm::pack_b_int8_matrix(
                in_, out_, wc->codes.data(), in_, /*trans_b=*/true, alut.q));
            return pw;
          });
      Tensor y({n, out_});
      // Activations ride as a float-source operand: the backend pack fuses
      // the level quantization into the panel distribution (bit-identical to
      // a separate quantize_levels pass, no intermediate buffer).
      gemm::Int8Operand a;
      a.ld = in_;
      a.uniform_scale = alut.scale * xscale;
      a.fsrc = x.raw();
      a.finv = 1.0 / (alut.scale * xscale);
      a.flo = alut.qmin;
      a.fhi = alut.qmax;
      const gemm::Int8Operand b{wc->codes.data(), in_, /*trans=*/true, alut.q,
                                cached.iscales.data(), 0.0};
      gemm::qgemm_int8(n, out_, in_, a, b, gemm::Init::kBiasCol,
                       bias.value.raw(), y.raw(), out_, nullptr, epi, nullptr,
                       cached.ipacks.data());
      return y;
    }
  }
  // Float body over the live FP32 weights or, in code mode, the codes: the
  // GEMM operand is then packed straight from the codes, and the decoded
  // array (bit-identical to the quantize→dequantize weights) serves the
  // paths that read raw float pointers, so outputs match the float-path
  // quantized forward exactly.
  const float* w = weight.value.raw();
  const gemm::PackedMatrix* pb = nullptr;
  if (!ctx.train) {
    const PackedWeights& cached = packs_.get(
        weight, cache_identity(wc.get(), PackKind::kFloat), [&] {
          PackedWeights pw;
          if (wc != nullptr) pw.decoded = decoded_weights(*wc, in_);
          pw.packs.push_back(
              wc != nullptr
                  ? gemm::pack_b_codes(in_, out_, wc->codes.data(), in_,
                                       /*trans_b=*/true, wc->lut,
                                       wc->scales.data())
                  : gemm::pack_b_matrix(in_, out_, weight.value.raw(), in_,
                                        /*trans_b=*/true));
          return pw;
        });
    if (wc != nullptr) w = cached.decoded.data();
    pb = cached.packs.data();
  }
  Tensor y({n, out_});
  if (gemm::enabled()) {
    // y = x · Wᵀ + b; bias-first then ascending-k accumulation matches the
    // naive loop's rounding sequence exactly.
    gemm::sgemm(n, out_, in_, x.raw(), in_, /*trans_a=*/false, w, in_,
                /*trans_b=*/true, y.raw(), out_, gemm::Init::kBiasCol,
                bias.value.raw(), nullptr, epi, nullptr, pb);
  } else {
    for (int i = 0; i < n; ++i) {
      const float* xi = x.raw() + static_cast<std::ptrdiff_t>(i) * in_;
      for (int o = 0; o < out_; ++o) {
        const float* wo = w + static_cast<std::ptrdiff_t>(o) * in_;
        float acc = bias.value[o];
        for (int j = 0; j < in_; ++j) acc += wo[j] * xi[j];
        y.at(i, o) = gemm::epilogue_eval(epi, acc);
      }
    }
  }
  if (ctx.train) x_cache_ = x;
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const int n = x.dim(0);
  Tensor dx({n, in_});
  if (gemm::enabled()) {
    // dx = g · W;  dW += gᵀ · x;  db += column sums of g.
    gemm::sgemm(n, in_, out_, grad_out.raw(), out_, /*trans_a=*/false,
                weight.value.raw(), in_, /*trans_b=*/false, dx.raw(), in_);
    gemm::sgemm(out_, in_, n, grad_out.raw(), out_, /*trans_a=*/true, x.raw(),
                in_, /*trans_b=*/false, weight.grad.raw(), in_,
                gemm::Init::kAccumulate);
    for (int o = 0; o < out_; ++o) {
      float s = bias.grad[o];
      for (int i = 0; i < n; ++i) s += grad_out[static_cast<std::int64_t>(i) * out_ + o];
      bias.grad[o] = s;
    }
  } else {
    for (int i = 0; i < n; ++i) {
      const float* xi = x.raw() + static_cast<std::ptrdiff_t>(i) * in_;
      float* dxi = dx.raw() + static_cast<std::ptrdiff_t>(i) * in_;
      for (int o = 0; o < out_; ++o) {
        const float g = grad_out.at(i, o);
        const float* w = weight.value.raw() + static_cast<std::ptrdiff_t>(o) * in_;
        float* dw = weight.grad.raw() + static_cast<std::ptrdiff_t>(o) * in_;
        bias.grad[o] += g;
        for (int j = 0; j < in_; ++j) {
          dw[j] += g * xi[j];
          dxi[j] += g * w[j];
        }
      }
    }
  }
  return dx;
}

// ---------------------------------------------------------------- Conv2d ---

Conv2d::Conv2d(int in_ch, int out_ch, int ksize, int stride, int pad, int groups,
               std::mt19937& rng)
    : weight(Tensor::randn(
          {out_ch, in_ch / groups, ksize, ksize}, rng,
          std::sqrt(2.f / static_cast<float>((in_ch / groups) * ksize * ksize)))),
      bias(Tensor::zeros({out_ch})),
      in_ch_(in_ch),
      out_ch_(out_ch),
      k_(ksize),
      stride_(stride),
      pad_(pad),
      groups_(groups) {
  if (in_ch % groups != 0 || out_ch % groups != 0)
    throw std::invalid_argument("Conv2d: groups must divide channel counts");
}

void Conv2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&weight);
  out.push_back(&bias);
}

std::span<float> Conv2d::channel_span(int c) {
  const std::size_t per = static_cast<std::size_t>(in_ch_ / groups_) *
                          static_cast<std::size_t>(k_) * static_cast<std::size_t>(k_);
  return weight.value.data().subspan(static_cast<std::size_t>(c) * per, per);
}

/// Static geometry of one conv application, shared by the GEMM-lowered
/// forward and backward.
struct ConvGeom {
  int n, in_ch, out_ch, h, w, oh, ow, k, stride, pad, groups, icg, ocg;
  [[nodiscard]] int osz() const { return oh * ow; }
  [[nodiscard]] int kdim() const { return icg * k * k; }
  /// 1x1/stride-1/no-pad convs read the input slab as the column buffer
  /// directly — no im2col copy.
  [[nodiscard]] bool unit() const { return k == 1 && stride == 1 && pad == 0; }
  [[nodiscard]] bool depthwise() const { return icg == 1 && ocg == 1; }
};

namespace {

/// One depthwise output element from the taps that land in bounds: bias
/// first, then (ki, kj) ascending over the in-bounds taps — the naive loop's
/// order, with out-of-bounds taps skipped, never zero-padded (a padded tap
/// would turn a -0 sum into +0 and an inf weight into NaN).  (r0, c0) is the
/// input position under tap (0, 0).
inline float dw_point(const ConvGeom& g, const float* x, const float* wk,
                      float b, int r0, int c0) {
  const int kilo = std::max(0, -r0), kihi = std::min(g.k, g.h - r0);
  const int kjlo = std::max(0, -c0), kjhi = std::min(g.k, g.w - c0);
  float acc = b;
  for (int ki = kilo; ki < kihi; ++ki) {
    const float* row = x + static_cast<std::ptrdiff_t>(r0 + ki) * g.w + c0;
    for (int kj = kjlo; kj < kjhi; ++kj) acc += wk[ki * g.k + kj] * row[kj];
  }
  return acc;
}

/// Interior columns [j0, j1) of output row i (every kj in bounds): the K×K
/// taps unroll in (ki, kj) order per element and the j loop vectorizes.
/// On a border row (Masked) the out-of-bounds tap rows are skipped by a
/// select that keeps acc unchanged — bitwise the same as not adding — and
/// read a clamped in-bounds row instead.
template <int K, int S, bool Masked>
void dw_row_interior(const ConvGeom& g, const float* x, const float* wv,
                     float b, int i, float* __restrict y, int j0, int j1) {
  const int r0 = i * S - g.pad, c0 = -g.pad;
  const float* rp[K];
  bool live[K];
  for (int ki = 0; ki < K; ++ki) {
    const int r = r0 + ki;
    live[ki] = r >= 0 && r < g.h;
    rp[ki] = x + static_cast<std::ptrdiff_t>(std::clamp(r, 0, g.h - 1)) * g.w +
             c0;
  }
  for (int j = j0; j < j1; ++j) {
    float acc = b;
    for (int ki = 0; ki < K; ++ki)
      for (int kj = 0; kj < K; ++kj) {
        const float t = acc + wv[ki * K + kj] * rp[ki][j * S + kj];
        if constexpr (Masked)
          acc = live[ki] ? t : acc;
        else
          acc = t;
      }
    y[j] = acc;
  }
}

/// One border column j of a plane (some kj out of bounds), top to bottom:
/// its in-bounds kj range is fixed down the column, so the tap loops stay
/// predictable.
template <int K>
void dw_border_col(const ConvGeom& g, const float* x, const float* wv,
                   float b, float* y, int j) {
  const int c0 = j * g.stride - g.pad;
  const int kjlo = std::max(0, -c0), kjhi = std::min(K, g.w - c0);
  for (int i = 0; i < g.oh; ++i) {
    const int r0 = i * g.stride - g.pad;
    const int kilo = std::max(0, -r0), kihi = std::min(K, g.h - r0);
    float acc = b;
    for (int ki = kilo; ki < kihi; ++ki) {
      const float* row = x + static_cast<std::ptrdiff_t>(r0 + ki) * g.w + c0;
      for (int kj = kjlo; kj < kjhi; ++kj) acc += wv[ki * K + kj] * row[kj];
    }
    y[static_cast<std::size_t>(i) * g.ow + j] = acc;
  }
}

/// One depthwise channel plane, any k/stride/pad, bit-identical to the
/// naive loop.  With a compile-time K/S, each output row splits into border
/// columns (dw_border_col) and an interior span where every tap column is in
/// bounds (dw_row_interior, masked on the border rows).  Other geometries
/// (K = 0) run dw_point per element.
template <int K, int S>
void dw_plane(const ConvGeom& g, const float* x, const float* wk, float b,
              float* y) {
  if constexpr (K == 0) {
    for (int i = 0; i < g.oh; ++i)
      for (int j = 0; j < g.ow; ++j)
        y[static_cast<std::size_t>(i) * g.ow + j] =
            dw_point(g, x, wk, b, i * g.stride - g.pad, j * g.stride - g.pad);
  } else {
    float wv[K * K];
    for (int t = 0; t < K * K; ++t) wv[t] = wk[t];
    // Interior columns: j*S - pad >= 0 and j*S - pad + K - 1 <= w - 1.
    const int j0 = std::min(g.ow, (g.pad + S - 1) / S);
    const int span = g.w - K + g.pad;
    const int j1 = std::max(j0, span >= 0 ? std::min(g.ow, span / S + 1) : 0);
    for (int i = 0; i < g.oh; ++i) {
      const int r0 = i * S - g.pad;
      float* yr = y + static_cast<std::size_t>(i) * g.ow;
      if (r0 >= 0 && r0 + K <= g.h)
        dw_row_interior<K, S, false>(g, x, wv, b, i, yr, j0, j1);
      else
        dw_row_interior<K, S, true>(g, x, wv, b, i, yr, j0, j1);
    }
    for (int j = 0; j < j0; ++j) dw_border_col<K>(g, x, wv, b, y, j);
    for (int j = j1; j < g.ow; ++j) dw_border_col<K>(g, x, wv, b, y, j);
  }
}

using DwPlaneFn = void (*)(const ConvGeom&, const float*, const float*, float,
                           float*);

/// The plane kernel for a geometry: unrolled interiors for the 3x3 and 5x5
/// kernels at stride 1 and 2, the generic K = 0 instance otherwise.
DwPlaneFn dw_plane_for(int k, int stride) {
  if (k == 3 && stride == 1) return dw_plane<3, 1>;
  if (k == 3 && stride == 2) return dw_plane<3, 2>;
  if (k == 5 && stride == 1) return dw_plane<5, 1>;
  if (k == 5 && stride == 2) return dw_plane<5, 2>;
  return dw_plane<0, 0>;
}

/// One sample's depthwise forward, channel plane by channel plane; a fused
/// inference BN (per-channel scale/shift) and activation run through the
/// elementwise entry on each finished plane while it is still in L1 — the
/// same per-element ops the BN and Activation modules apply, so the fused
/// output is bit-identical to the module passes.
void conv_forward_depthwise(const ConvGeom& g, const float* xb, const float* wt,
                            const float* bias, float* yb, gemm::Epilogue epi,
                            const float* bn_scale, const float* bn_shift) {
  const DwPlaneFn plane = dw_plane_for(g.k, g.stride);
  const int kk = g.k * g.k;
  const std::size_t osz = static_cast<std::size_t>(g.osz());
  for (int c = 0; c < g.out_ch; ++c) {
    float* yp = yb + static_cast<std::size_t>(c) * osz;
    plane(g, xb + static_cast<std::size_t>(c) * g.h * g.w,
          wt + static_cast<std::size_t>(c) * kk, bias[c], yp);
    if (bn_scale != nullptr) {
      const gemm::ScalarAffine aff{bn_scale[c], bn_shift[c]};
      gemm::epilogue_apply(epi, yp, yp, osz, &aff);
    } else if (epi != gemm::Epilogue::kNone) {
      gemm::epilogue_apply(epi, yp, yp, osz);
    }
  }
}

/// One sample's grouped-conv forward as per-group GEMMs over an im2col
/// buffer (`col` is caller-provided scratch of kdim x osz floats, unused
/// for unit convs).  `packs`, when non-null, holds one prepacked A operand
/// per group; `epi` fuses a following activation into the write-back, and
/// `bn_scale`/`bn_shift` (out_ch entries) fuse a following inference BN as
/// the per-channel affine applied before `epi`.
void conv_forward_sample(const ConvGeom& g, const float* xb, const float* wt,
                         const float* bias, float* yb, float* col,
                         const gemm::PackedMatrix* packs, gemm::Epilogue epi,
                         const float* bn_scale, const float* bn_shift) {
  for (int grp = 0; grp < g.groups; ++grp) {
    const float* src = xb + static_cast<std::size_t>(grp) * g.icg * g.h * g.w;
    const float* colp = src;
    if (!g.unit()) {
      gemm::im2col(src, g.icg, g.h, g.w, g.k, g.stride, g.pad, col);
      colp = col;
    }
    gemm::RowAffine aff;
    if (bn_scale != nullptr) {
      aff.scale = bn_scale + static_cast<std::size_t>(grp) * g.ocg;
      aff.shift = bn_shift + static_cast<std::size_t>(grp) * g.ocg;
    }
    gemm::sgemm(g.ocg, g.osz(), g.kdim(),
                wt + static_cast<std::size_t>(grp) * g.ocg * g.kdim(), g.kdim(),
                /*trans_a=*/false, colp, g.osz(), /*trans_b=*/false,
                yb + static_cast<std::size_t>(grp) * g.ocg * g.osz(), g.osz(),
                gemm::Init::kBiasRow, bias + static_cast<std::size_t>(grp) * g.ocg,
                nullptr, epi, packs != nullptr ? &packs[grp] : nullptr, nullptr,
                bn_scale != nullptr ? &aff : nullptr);
  }
}

}  // namespace

ConvGeom Conv2d::geom(const Tensor& x) const {
  if (x.dim(1) != in_ch_) throw std::invalid_argument("Conv2d: channel mismatch");
  const int h = x.dim(2), w = x.dim(3);
  const int oh = (h + 2 * pad_ - k_) / stride_ + 1;
  const int ow = (w + 2 * pad_ - k_) / stride_ + 1;
  return {x.dim(0), in_ch_, out_ch_, h,       w,
          oh,       ow,     k_,      stride_, pad_,
          groups_,  in_ch_ / groups_, out_ch_ / groups_};
}

Tensor Conv2d::forward(const Tensor& x, const Context& ctx) {
  return forward_fused(x, ctx, gemm::Epilogue::kNone);
}

Tensor Conv2d::forward_fused(const Tensor& x, const Context& ctx,
                             gemm::Epilogue epi, const BatchNorm2d* bn) {
  // The exact per-channel coefficients BatchNorm2d::forward evaluates in
  // inference mode — same expressions, so scale*v + shift reproduces the
  // module pass bit for bit.  Recomputed per forward like the module does;
  // out_ch scalars, negligible next to the GEMM.
  std::vector<float> sc, sh;
  if (bn != nullptr) {
    if (bn->folded())
      throw std::logic_error("Conv2d::forward_fused: BN already folded");
    if (bn->channels() != out_ch_)
      throw std::invalid_argument("Conv2d::forward_fused: BN channel mismatch");
    sc.resize(static_cast<std::size_t>(out_ch_));
    sh.resize(static_cast<std::size_t>(out_ch_));
    for (int c = 0; c < out_ch_; ++c) {
      const float inv = 1.f / std::sqrt(bn->running_var[c] + bn->eps());
      const float scale = bn->gamma.value[c] * inv;
      sc[static_cast<std::size_t>(c)] = scale;
      sh[static_cast<std::size_t>(c)] =
          bn->beta.value[c] - bn->running_mean[c] * scale;
    }
  }
  const float* bn_scale = bn != nullptr ? sc.data() : nullptr;
  const float* bn_shift = bn != nullptr ? sh.data() : nullptr;
  const ConvGeom g = geom(x);
  const int kdim = g.kdim();
  const auto wc = active_codes(*this, ctx);
  if (wc != nullptr) {
    check_codes(*wc, out_ch_, kdim, "Conv2d");
    if (bn == nullptr && !g.depthwise() && kulisch_ok(*wc, x))
      return run_conv_kulisch(x, g, *wc, epi);
    if (!g.depthwise() && int8_ok(*wc, x) && kdim <= gemm::kInt8MaxK) {
      // Decode-free path (see Linear::forward_fused).  A fused inference BN
      // rides the RowAffine write-back, identical to run_conv's.  Depthwise
      // stays on the direct float loops (no GEMM to run in the level
      // domain).
      const PackedWeights& cached = packs_.get(
          weight, cache_identity(wc.get(), PackKind::kInt8), [&] {
            PackedWeights pw;
            pw.iscales = int8_scales(*wc);
            for (int grp = 0; grp < groups_; ++grp)
              pw.ipacks.push_back(gemm::pack_a_int8_matrix(
                  g.ocg, kdim,
                  wc->codes.data() + static_cast<std::size_t>(grp) * g.ocg * kdim,
                  kdim, /*trans_a=*/false, wc->affine->q));
            return pw;
          });
      return run_conv_int8(x, g, *wc, cached, epi, bn_scale, bn_shift);
    }
  }
  // Float body over the live FP32 weights or, in code mode, the codes:
  // packs come straight from the codes, and the decoded array (bit-identical
  // to quantize→dequantize) feeds the depthwise/naive loops and the
  // small-problem direct GEMM.
  const bool want_packs = !g.depthwise();
  const float* wt = weight.value.raw();
  const gemm::PackedMatrix* packs = nullptr;
  if (!ctx.train && (wc != nullptr || want_packs)) {
    const PackedWeights& cached = packs_.get(
        weight, cache_identity(wc.get(), PackKind::kFloat), [&] {
          PackedWeights pw;
          if (wc != nullptr) pw.decoded = decoded_weights(*wc, kdim);
          if (want_packs)
            for (int grp = 0; grp < groups_; ++grp) {
              const std::size_t off = static_cast<std::size_t>(grp) * g.ocg * kdim;
              pw.packs.push_back(
                  wc != nullptr
                      ? gemm::pack_a_codes(
                            g.ocg, kdim, wc->codes.data() + off, kdim,
                            /*trans_a=*/false, wc->lut,
                            wc->scales.data() + static_cast<std::size_t>(grp) * g.ocg)
                      : gemm::pack_a_matrix(g.ocg, kdim, weight.value.raw() + off,
                                            kdim, /*trans_a=*/false));
            }
          return pw;
        });
    if (wc != nullptr) wt = cached.decoded.data();
    if (want_packs) packs = cached.packs.data();
  }
  Tensor y = run_conv(x, g, wt, packs, epi, bn_scale, bn_shift);
  if (ctx.train) x_cache_ = x;
  return y;
}

Tensor Conv2d::run_conv_kulisch(const Tensor& x, const ConvGeom& g,
                                const WeightCodes& wc, gemm::Epilogue epi) {
  const int kdim = g.kdim(), osz = g.osz();
  const double xscale = x.quant_scale();
  const double xinv = 1.0 / xscale;
  Tensor y({g.n, out_ch_, g.oh, g.ow});
  core::global_pool().parallel_for(static_cast<std::size_t>(g.n), [&](std::size_t b) {
    const float* xb = x.raw() + b * static_cast<std::size_t>(in_ch_) * g.h * g.w;
    float* yb = y.raw() + b * static_cast<std::size_t>(out_ch_) * osz;
    // The quire path re-reads every element once to encode; plain vectors
    // instead of the float-only ScratchArena (exactness mode, not a hot
    // path).
    std::vector<float> col;
    if (!g.unit()) col.resize(static_cast<std::size_t>(kdim) * osz);
    std::vector<std::uint8_t> ccodes(static_cast<std::size_t>(kdim) * osz);
    for (int grp = 0; grp < groups_; ++grp) {
      const float* src = xb + static_cast<std::size_t>(grp) * g.icg * g.h * g.w;
      const float* colp = src;
      if (!g.unit()) {
        gemm::im2col(src, g.icg, g.h, g.w, k_, stride_, pad_, col.data());
        colp = col.data();
      }
      for (std::size_t i = 0; i < ccodes.size(); ++i)
        ccodes[i] = wc.encode(static_cast<double>(colp[i]) * xinv);
      const gemm::QOperand a{
          wc.codes.data() + static_cast<std::size_t>(grp) * g.ocg * kdim, kdim,
          /*trans=*/false, wc.scales.data() + static_cast<std::size_t>(grp) * g.ocg,
          0.0};
      const gemm::QOperand bop{ccodes.data(), osz, /*trans=*/false, nullptr,
                               xscale};
      gemm::qgemm_kulisch(g.ocg, osz, kdim, a, bop, *wc.kulisch,
                          gemm::Init::kBiasRow,
                          bias.value.raw() + static_cast<std::size_t>(grp) * g.ocg,
                          yb + static_cast<std::size_t>(grp) * g.ocg * osz, osz,
                          epi);
    }
  });
  return y;
}

Tensor Conv2d::run_conv_int8(const Tensor& x, const ConvGeom& g,
                             const WeightCodes& wc, const PackedWeights& cached,
                             gemm::Epilogue epi, const float* bn_scale,
                             const float* bn_shift) {
  const int n = g.n, h = g.h, w = g.w, icg = g.icg, ocg = g.ocg;
  const int kdim = g.kdim(), osz = g.osz();
  const gemm::AffineLut& alut = *wc.affine;
  const double xscale = x.quant_scale();
  const double xinv = 1.0 / (alut.scale * xscale);
  Tensor y({n, out_ch_, g.oh, g.ow});
  // Batched lowering: sample chunks share one wide column buffer (sample i's
  // columns at offset i*osz, row stride chunk·osz), so each group runs ONE
  // qgemm_int8 of N = chunk·osz columns instead of a per-sample GEMM —
  // per-call pack/driver overhead amortizes across the batch, which is what
  // makes int8 win at small-channel shapes (M = ocg as low as 14 in the
  // mini models).  The lowering itself is the fused im2col_int8: columns are
  // written directly as int8 levels (one pass, 4x smaller buffer, and the
  // separate quantize sweep disappears).  Chunk boundaries are a function of
  // the shape only, every output element's integer accumulation is exact,
  // and the dequant expression is per-element — so results are invariant to
  // chunking, tiling, thread count, and backend, exactly like the
  // per-sample formulation this replaces.
  const std::size_t col_bytes = static_cast<std::size_t>(kdim) * osz;
  constexpr std::size_t kColBudget = std::size_t{8} << 20;
  const int chunk = static_cast<int>(std::clamp<std::size_t>(
      kColBudget / (col_bytes != 0 ? col_bytes : 1), 1,
      static_cast<std::size_t>(n)));
  core::ScratchArena& arena = core::ScratchArena::local();
  const core::ScratchArena::Scope scope(arena);
  // The level buffer reinterprets arena floats (4 int8 levels per slot);
  // the arena's 64-byte slot alignment carries over.
  std::int8_t* qcol = reinterpret_cast<std::int8_t*>(
      arena.alloc((static_cast<std::size_t>(kdim) * chunk * osz + 3) / 4));
  // Batched C rows interleave samples ([m][sample][osz]), so the GEMM lands
  // in scratch and scatters to y's [sample][channel][osz] layout after.
  float* cbuf = chunk > 1
                    ? arena.alloc(static_cast<std::size_t>(ocg) * chunk * osz)
                    : nullptr;
  for (int b0 = 0; b0 < n; b0 += chunk) {
    const int bn = std::min(chunk, n - b0);
    const int ncols = bn * osz;
    for (int grp = 0; grp < groups_; ++grp) {
      core::global_pool().parallel_for(
          static_cast<std::size_t>(bn), [&](std::size_t bi) {
            gemm::im2col_int8(
                x.raw() + (static_cast<std::size_t>(b0 + bi) * in_ch_ +
                           static_cast<std::size_t>(grp) * icg) *
                              h * w,
                icg, h, w, k_, stride_, pad_, xinv, alut.qmin, alut.qmax,
                qcol + bi * static_cast<std::size_t>(osz), ncols);
          });
      gemm::RowAffine aff;
      if (bn_scale != nullptr) {
        aff.scale = bn_scale + static_cast<std::size_t>(grp) * ocg;
        aff.shift = bn_shift + static_cast<std::size_t>(grp) * ocg;
      }
      const gemm::Int8Operand a{
          wc.codes.data() + static_cast<std::size_t>(grp) * ocg * kdim, kdim,
          /*trans=*/false, alut.q,
          cached.iscales.data() + static_cast<std::size_t>(grp) * ocg, 0.0};
      const gemm::Int8Operand bop{reinterpret_cast<const std::uint8_t*>(qcol),
                                  ncols, /*trans=*/false, gemm::identity_qlut(),
                                  nullptr, alut.scale * xscale};
      float* cdst = bn == 1
                        ? y.raw() + (static_cast<std::size_t>(b0) * out_ch_ +
                                     static_cast<std::size_t>(grp) * ocg) *
                                        osz
                        : cbuf;
      gemm::qgemm_int8(ocg, ncols, kdim, a, bop, gemm::Init::kBiasRow,
                       bias.value.raw() + static_cast<std::size_t>(grp) * ocg,
                       cdst, ncols, &core::global_pool(), epi,
                       &cached.ipacks[grp], nullptr,
                       bn_scale != nullptr ? &aff : nullptr);
      if (bn > 1) {
        for (int m = 0; m < ocg; ++m) {
          const float* crow = cbuf + static_cast<std::size_t>(m) * ncols;
          for (int bi = 0; bi < bn; ++bi)
            std::memcpy(y.raw() + ((static_cast<std::size_t>(b0 + bi) *
                                        out_ch_ +
                                    static_cast<std::size_t>(grp) * ocg + m)) *
                                      osz,
                        crow + static_cast<std::size_t>(bi) * osz,
                        static_cast<std::size_t>(osz) * sizeof(float));
        }
      }
    }
  }
  return y;
}

Tensor Conv2d::run_conv(const Tensor& x, const ConvGeom& g, const float* wt,
                        const gemm::PackedMatrix* group_packs,
                        gemm::Epilogue epi, const float* bn_scale,
                        const float* bn_shift) {
  const float* bs = bias.value.raw();
  Tensor y({g.n, out_ch_, g.oh, g.ow});
  if (gemm::enabled()) {
    // Samples are independent; nested calls (e.g. from the parallel PTQ
    // evaluators) run inline, and each sample is computed whole, so the
    // output is invariant to the thread count.
    core::global_pool().parallel_for(static_cast<std::size_t>(g.n), [&](std::size_t b) {
      const float* xb = x.raw() + b * static_cast<std::size_t>(in_ch_) * g.h * g.w;
      float* yb = y.raw() + b * static_cast<std::size_t>(out_ch_) * g.osz();
      if (g.depthwise()) {
        conv_forward_depthwise(g, xb, wt, bs, yb, epi, bn_scale, bn_shift);
        return;
      }
      core::ScratchArena& arena = core::ScratchArena::local();
      const core::ScratchArena::Scope scope(arena);
      float* col = g.unit() ? nullptr
                            : arena.alloc(static_cast<std::size_t>(g.kdim()) * g.osz());
      conv_forward_sample(g, xb, wt, bs, yb, col, group_packs, epi, bn_scale,
                          bn_shift);
    });
  } else {
    const int kk = k_ * k_;
    for (int b = 0; b < g.n; ++b) {
      for (int o = 0; o < out_ch_; ++o) {
        const int grp = o / g.ocg;
        for (int i = 0; i < g.oh; ++i) {
          for (int j = 0; j < g.ow; ++j) {
            float acc = bs[o];
            for (int c = 0; c < g.icg; ++c) {
              const int ic = grp * g.icg + c;
              const float* wo = wt + (static_cast<std::size_t>(o) * g.icg + c) * kk;
              for (int ki = 0; ki < k_; ++ki) {
                const int yi = i * stride_ + ki - pad_;
                if (yi < 0 || yi >= g.h) continue;
                for (int kj = 0; kj < k_; ++kj) {
                  const int xj = j * stride_ + kj - pad_;
                  if (xj < 0 || xj >= g.w) continue;
                  acc += wo[ki * k_ + kj] * x.at(b, ic, yi, xj);
                }
              }
            }
            if (bn_scale != nullptr) acc = bn_scale[o] * acc + bn_shift[o];
            y.at(b, o, i, j) = gemm::epilogue_eval(epi, acc);
          }
        }
      }
    }
  }
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const ConvGeom g = geom(x);
  const int n = g.n, h = g.h, w = g.w, oh = g.oh, ow = g.ow;
  const int icg = g.icg, ocg = g.ocg;
  Tensor dx(x.shape());
  if (gemm::enabled()) {
    const int osz = g.osz(), kdim = g.kdim();
    core::ScratchArena& arena = core::ScratchArena::local();
    const core::ScratchArena::Scope scope(arena);
    const std::size_t cn = g.unit() ? 0 : static_cast<std::size_t>(kdim) * osz;
    float* col = arena.alloc(cn);
    float* dcol = arena.alloc(cn);
    // Serial over samples: gradient accumulation into weight.grad keeps the
    // naive loop's batch-ascending add order (training is single-threaded).
    for (int b = 0; b < n; ++b) {
      const float* xb = x.raw() + static_cast<std::size_t>(b) * in_ch_ * h * w;
      float* dxb = dx.raw() + static_cast<std::size_t>(b) * in_ch_ * h * w;
      for (int grp = 0; grp < groups_; ++grp) {
        const float* src = xb + static_cast<std::size_t>(grp) * icg * h * w;
        const float* colp = src;
        if (!g.unit()) {
          gemm::im2col(src, icg, h, w, k_, stride_, pad_, col);
          colp = col;
        }
        const float* gy = grad_out.raw() +
                          (static_cast<std::size_t>(b) * out_ch_ +
                           static_cast<std::size_t>(grp) * ocg) * osz;
        // db: per-channel sums of gy, (i, j) ascending as in the naive loop.
        for (int o = 0; o < ocg; ++o) {
          float s = bias.grad[grp * ocg + o];
          const float* row = gy + static_cast<std::size_t>(o) * osz;
          for (int p = 0; p < osz; ++p) s += row[p];
          bias.grad[grp * ocg + o] = s;
        }
        // dW += gy · colᵀ   ([ocg x osz] · [osz x kdim])
        gemm::sgemm(ocg, kdim, osz, gy, osz, /*trans_a=*/false, colp, osz,
                    /*trans_b=*/true,
                    weight.grad.raw() + static_cast<std::size_t>(grp) * ocg * kdim,
                    kdim, gemm::Init::kAccumulate);
        // dcol = Wᵀ · gy   ([kdim x ocg] · [ocg x osz]), then fold back to
        // image space.  Unit convs write the input-gradient slab directly.
        float* dslab = dxb + static_cast<std::size_t>(grp) * icg * h * w;
        if (g.unit()) {
          gemm::sgemm(kdim, osz, ocg,
                      weight.value.raw() + static_cast<std::size_t>(grp) * ocg * kdim,
                      kdim, /*trans_a=*/true, gy, osz, /*trans_b=*/false, dslab,
                      osz);
        } else {
          gemm::sgemm(kdim, osz, ocg,
                      weight.value.raw() + static_cast<std::size_t>(grp) * ocg * kdim,
                      kdim, /*trans_a=*/true, gy, osz, /*trans_b=*/false,
                      dcol, osz);
          gemm::col2im_add(dcol, icg, h, w, k_, stride_, pad_, dslab);
        }
      }
    }
    return dx;
  }
  for (int b = 0; b < n; ++b) {
    for (int o = 0; o < out_ch_; ++o) {
      const int grp = o / ocg;
      for (int i = 0; i < oh; ++i) {
        for (int j = 0; j < ow; ++j) {
          const float go = grad_out.at(b, o, i, j);
          if (go == 0.f) continue;
          bias.grad[o] += go;
          for (int c = 0; c < icg; ++c) {
            const int ic = grp * icg + c;
            for (int ki = 0; ki < k_; ++ki) {
              const int yi = i * stride_ + ki - pad_;
              if (yi < 0 || yi >= h) continue;
              for (int kj = 0; kj < k_; ++kj) {
                const int xj = j * stride_ + kj - pad_;
                if (xj < 0 || xj >= w) continue;
                weight.grad.at(o, c, ki, kj) += go * x.at(b, ic, yi, xj);
                dx.at(b, ic, yi, xj) += go * weight.value.at(o, c, ki, kj);
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

// ----------------------------------------------------------- BatchNorm2d ---

BatchNorm2d::BatchNorm2d(int channels)
    : gamma(Tensor({channels}, 1.f)),
      beta(Tensor::zeros({channels})),
      running_mean(Tensor::zeros({channels})),
      running_var(Tensor({channels}, 1.f)),
      c_(channels) {}

void BatchNorm2d::collect_params(std::vector<Param*>& out) {
  out.push_back(&gamma);
  out.push_back(&beta);
}

Tensor BatchNorm2d::forward(const Tensor& x, const Context& ctx) {
  if (folded_) return x;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const float count = static_cast<float>(n * h * w);
  Tensor y(x.shape());
  if (ctx.train) {
    x_shape_ = x.shape();
    x_hat_ = Tensor(x.shape());
    inv_std_ = Tensor({c_});
    for (int c = 0; c < c_; ++c) {
      float mean = 0.f;
      for (int b = 0; b < n; ++b)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) mean += x.at(b, c, i, j);
      mean /= count;
      float var = 0.f;
      for (int b = 0; b < n; ++b)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) {
            const float d = x.at(b, c, i, j) - mean;
            var += d * d;
          }
      var /= count;
      const float inv = 1.f / std::sqrt(var + eps_);
      inv_std_[c] = inv;
      running_mean[c] = (1.f - momentum_) * running_mean[c] + momentum_ * mean;
      running_var[c] = (1.f - momentum_) * running_var[c] + momentum_ * var;
      for (int b = 0; b < n; ++b)
        for (int i = 0; i < h; ++i)
          for (int j = 0; j < w; ++j) {
            const float xh = (x.at(b, c, i, j) - mean) * inv;
            x_hat_.at(b, c, i, j) = xh;
            y.at(b, c, i, j) = gamma.value[c] * xh + beta.value[c];
          }
    }
  } else {
    // Inference affine over contiguous [h*w] channel planes: scale*x +
    // shift per element through the elementwise entry (the same expression
    // the fused conv write-back applies).
    const std::size_t hw = static_cast<std::size_t>(h) * w;
    for (int c = 0; c < c_; ++c) {
      const float inv = 1.f / std::sqrt(running_var[c] + eps_);
      const float scale = gamma.value[c] * inv;
      const gemm::ScalarAffine aff{scale,
                                   beta.value[c] - running_mean[c] * scale};
      for (int b = 0; b < n; ++b) {
        const std::size_t off = (static_cast<std::size_t>(b) * c_ + c) * hw;
        gemm::epilogue_apply(gemm::Epilogue::kNone, x.raw() + off,
                             y.raw() + off, hw, &aff);
      }
    }
  }
  return y;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  const int n = x_shape_[0], h = x_shape_[2], w = x_shape_[3];
  const float count = static_cast<float>(n * h * w);
  Tensor dx({n, c_, h, w});
  for (int c = 0; c < c_; ++c) {
    float sum_dy = 0.f, sum_dy_xhat = 0.f;
    for (int b = 0; b < n; ++b)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float g = grad_out.at(b, c, i, j);
          sum_dy += g;
          sum_dy_xhat += g * x_hat_.at(b, c, i, j);
        }
    gamma.grad[c] += sum_dy_xhat;
    beta.grad[c] += sum_dy;
    const float scale = gamma.value[c] * inv_std_[c] / count;
    for (int b = 0; b < n; ++b)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float g = grad_out.at(b, c, i, j);
          dx.at(b, c, i, j) =
              scale * (count * g - sum_dy - x_hat_.at(b, c, i, j) * sum_dy_xhat);
        }
  }
  return dx;
}

void BatchNorm2d::fold_into(Conv2d& conv) {
  if (folded_) throw std::logic_error("BatchNorm2d: already folded");
  if (conv.out_channels() != c_)
    throw std::invalid_argument("BatchNorm2d::fold_into: channel mismatch");
  for (int o = 0; o < c_; ++o) {
    const float inv = 1.f / std::sqrt(running_var[o] + eps_);
    const float scale = gamma.value[o] * inv;
    for (float& v : conv.channel_span(o)) v *= scale;
    conv.bias.value[o] = (conv.bias.value[o] - running_mean[o]) * scale + beta.value[o];
  }
  conv.weight.bump_version();
  conv.bias.bump_version();
  folded_ = true;
}

// ------------------------------------------------------------ Activation ---

const char* act_name(Act a) {
  switch (a) {
    case Act::kReLU: return "ReLU";
    case Act::kReLU6: return "ReLU6";
    case Act::kSiLU: return "SiLU";
    case Act::kHardSwish: return "HardSwish";
    case Act::kGELU: return "GELU";
    case Act::kSigmoid: return "Sigmoid";
    case Act::kTanh: return "Tanh";
  }
  return "?";
}

float act_eval(Act a, float x) {
  switch (a) {
    // The fusable kinds delegate to the GEMM epilogue so the fused
    // write-back and the standalone Activation module share one formula —
    // bit-identity between the two paths holds by construction.
    case Act::kReLU: return gemm::epilogue_eval(gemm::Epilogue::kReLU, x);
    case Act::kReLU6: return gemm::epilogue_eval(gemm::Epilogue::kReLU6, x);
    case Act::kSiLU: return gemm::epilogue_eval(gemm::Epilogue::kSiLU, x);
    case Act::kHardSwish:
      return gemm::epilogue_eval(gemm::Epilogue::kHardSwish, x);
    case Act::kGELU: return gemm::epilogue_eval(gemm::Epilogue::kGELU, x);
    case Act::kSigmoid: return gemm::sigmoid_eval(x);
    case Act::kTanh: return std::tanh(x);
  }
  return 0.f;
}

namespace {

float act_grad(Act a, float x) {
  switch (a) {
    case Act::kReLU: return x > 0.f ? 1.f : 0.f;
    case Act::kReLU6: return (x > 0.f && x < 6.f) ? 1.f : 0.f;
    case Act::kSiLU: {
      const float s = gemm::sigmoid_eval(x);
      return s * (1.f + x * (1.f - s));
    }
    case Act::kHardSwish:
      if (x <= -3.f) return 0.f;
      if (x >= 3.f) return 1.f;
      return (2.f * x + 3.f) / 6.f;
    case Act::kGELU: {
      const float c = 0.7978845608f;
      const float u = c * (x + 0.044715f * x * x * x);
      const float t = std::tanh(u);
      return 0.5f * (1.f + t) +
             0.5f * x * (1.f - t * t) * c * (1.f + 3.f * 0.044715f * x * x);
    }
    case Act::kSigmoid: {
      const float s = gemm::sigmoid_eval(x);
      return s * (1.f - s);
    }
    case Act::kTanh: {
      const float t = std::tanh(x);
      return 1.f - t * t;
    }
  }
  return 0.f;
}

}  // namespace

Tensor Activation::forward(const Tensor& x, const Context& ctx) {
  Tensor y(x.shape());
  // act_eval delegates the fusable kinds to epilogue_eval, so the
  // elementwise entry computes the identical value per element.
  if (const auto e = epilogue_for(kind_); e != gemm::Epilogue::kNone) {
    gemm::epilogue_apply(e, x.raw(), y.raw(),
                         static_cast<std::size_t>(x.numel()));
  } else {
    for (std::int64_t i = 0; i < x.numel(); ++i) y[i] = act_eval(kind_, x[i]);
  }
  if (ctx.train) x_cache_ = x;
  return y;
}

Tensor Activation::backward(const Tensor& grad_out) {
  Tensor dx(x_cache_.shape());
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    dx[i] = grad_out[i] * act_grad(kind_, x_cache_[i]);
  return dx;
}

// -------------------------------------------------------------- Pooling ----

Tensor MaxPool2d::forward(const Tensor& x, const Context& ctx) {
  const int n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const int oh = h / 2, ow = w / 2;
  Tensor y({n, c, oh, ow});
  if (ctx.train) {
    x_cache_ = x;
    argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  }
  std::int64_t oi = 0;
  for (int b = 0; b < n; ++b)
    for (int ch = 0; ch < c; ++ch)
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j, ++oi) {
          float best = -1e30f;
          std::int64_t best_idx = 0;
          for (int di = 0; di < 2; ++di)
            for (int dj = 0; dj < 2; ++dj) {
              const int yi = 2 * i + di, xj = 2 * j + dj;
              const std::int64_t idx =
                  ((static_cast<std::int64_t>(b) * c + ch) * h + yi) * w + xj;
              if (x[idx] > best) {
                best = x[idx];
                best_idx = idx;
              }
            }
          y[oi] = best;
          if (ctx.train) argmax_[static_cast<std::size_t>(oi)] = best_idx;
        }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  Tensor dx(x_cache_.shape());
  for (std::int64_t oi = 0; oi < grad_out.numel(); ++oi)
    dx[argmax_[static_cast<std::size_t>(oi)]] += grad_out[oi];
  return dx;
}

Tensor GlobalAvgPool::forward(const Tensor& x, const Context& ctx) {
  const int n = x.dim(0), c = x.dim(1);
  const std::size_t hw = static_cast<std::size_t>(x.dim(2)) * x.dim(3);
  if (ctx.train) x_shape_ = x.shape();
  Tensor y({n, c});
  const float inv = 1.f / static_cast<float>(hw);
  // Planes are contiguous [h*w] runs, summed in row-major (i, j) order.
  for (std::size_t p = 0; p < static_cast<std::size_t>(n) * c; ++p) {
    const float* xp = x.raw() + p * hw;
    float acc = 0.f;
    for (std::size_t i = 0; i < hw; ++i) acc += xp[i];
    y.raw()[p] = acc * inv;
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const int n = x_shape_[0], c = x_shape_[1], h = x_shape_[2], w = x_shape_[3];
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  Tensor dx({n, c, h, w});
  const float inv = 1.f / static_cast<float>(hw);
  for (std::size_t p = 0; p < static_cast<std::size_t>(n) * c; ++p)
    std::fill_n(dx.raw() + p * hw, hw, grad_out.raw()[p] * inv);
  return dx;
}

Tensor Flatten::forward(const Tensor& x, const Context& ctx) {
  if (ctx.train) x_shape_ = x.shape();
  const int n = x.dim(0);
  return x.reshaped({n, static_cast<int>(x.numel() / n)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(x_shape_);
}

// ------------------------------------------------------------ Sequential ---

Sequential::Sequential(std::vector<ModulePtr> mods) : mods_(std::move(mods)) {
  names_.reserve(mods_.size());
  for (std::size_t i = 0; i < mods_.size(); ++i) names_.push_back(std::to_string(i));
}

void Sequential::add(ModulePtr m) {
  names_.push_back(std::to_string(mods_.size()));
  mods_.push_back(std::move(m));
}

void Sequential::add(std::string child_name, ModulePtr m) {
  names_.push_back(std::move(child_name));
  mods_.push_back(std::move(m));
}

Tensor Sequential::forward(const Tensor& x, const Context& ctx) {
  if (!fuse_inference_ok(ctx)) {
    Tensor cur = x;
    for (auto& m : mods_) cur = m->run(cur, ctx);
    return cur;
  }
  // Inference-only fusion scan (no quant session, so run() == forward() and
  // skipping a module loses no hooks): a Conv2d head absorbs an
  // already-folded BN (exact identity — saves the pass-through copy) or an
  // unfolded one (the bit-identical per-channel affine write-back), and a
  // Conv2d or Linear head absorbs a trailing fusable Activation
  // (bit-identical fused epilogue).
  Tensor cur = x;
  for (std::size_t i = 0; i < mods_.size();) {
    Module* m = mods_[i].get();
    auto* conv = dynamic_cast<Conv2d*>(m);
    auto* lin = conv == nullptr ? dynamic_cast<Linear*>(m) : nullptr;
    if (conv == nullptr && lin == nullptr) {
      cur = m->run(cur, ctx);
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    const BatchNorm2d* bn = nullptr;
    if (conv != nullptr && j < mods_.size()) {
      if (auto* b = dynamic_cast<BatchNorm2d*>(mods_[j].get())) {
        if (b->folded()) {
          ++j;  // identity module: skip it outright
        } else if (b->channels() == conv->out_channels()) {
          bn = b;
          ++j;
        }
      }
    }
    gemm::Epilogue epi = gemm::Epilogue::kNone;
    if (j < mods_.size()) {  // activation directly after conv[+bn] / linear
      if (auto* act = dynamic_cast<Activation*>(mods_[j].get())) {
        if (const auto e = epilogue_for(act->kind()); e != gemm::Epilogue::kNone) {
          epi = e;
          ++j;
        }
      }
    }
    cur = conv != nullptr ? conv->forward_fused(cur, ctx, epi, bn)
                          : lin->forward_fused(cur, ctx, epi);
    i = j;
  }
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = mods_.rbegin(); it != mods_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::collect_params(std::vector<Param*>& out) {
  for (auto& m : mods_) m->collect_params(out);
}

void Sequential::collect_children(std::vector<NamedChild>& out) {
  for (std::size_t i = 0; i < mods_.size(); ++i) out.push_back({names_[i], mods_[i].get()});
}

ModulePtr Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  copy->set_path(path());
  copy->names_ = names_;
  copy->mods_.reserve(mods_.size());
  for (const ModulePtr& m : mods_) copy->mods_.push_back(m->clone());
  return copy;
}

// -------------------------------------------------------------- Residual ---

Tensor ResidualBlock::forward(const Tensor& x, const Context& ctx) {
  Tensor main = body_->run(x, ctx);
  Tensor skip = shortcut_ ? shortcut_->run(x, ctx) : x;
  if (main.numel() != skip.numel())
    throw std::invalid_argument("ResidualBlock: branch shape mismatch");
  for (std::int64_t i = 0; i < main.numel(); ++i) main[i] += skip[i];
  return main;
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor dx = body_->backward(grad_out);
  if (shortcut_) {
    const Tensor ds = shortcut_->backward(grad_out);
    for (std::int64_t i = 0; i < dx.numel(); ++i) dx[i] += ds[i];
  } else {
    for (std::int64_t i = 0; i < dx.numel(); ++i) dx[i] += grad_out[i];
  }
  return dx;
}

void ResidualBlock::collect_params(std::vector<Param*>& out) {
  body_->collect_params(out);
  if (shortcut_) shortcut_->collect_params(out);
}

void ResidualBlock::collect_children(std::vector<NamedChild>& out) {
  out.push_back({"body", body_.get()});
  if (shortcut_) out.push_back({"shortcut", shortcut_.get()});
}

ModulePtr ResidualBlock::clone() const {
  auto copy = std::make_unique<ResidualBlock>(body_->clone(),
                                              shortcut_ ? shortcut_->clone() : nullptr);
  copy->set_path(path());
  return copy;
}

// -------------------------------------------------------------------- SE ---

SEBlock::SEBlock(int channels, int reduced, std::mt19937& rng)
    : c_(channels), fc1_(channels, reduced, rng), fc2_(reduced, channels, rng) {}

void SEBlock::collect_params(std::vector<Param*>& out) {
  fc1_.collect_params(out);
  fc2_.collect_params(out);
}

void SEBlock::collect_children(std::vector<NamedChild>& out) {
  out.push_back({"fc1", &fc1_});
  out.push_back({"fc2", &fc2_});
}

Tensor SEBlock::forward(const Tensor& x, const Context& ctx) {
  // Computed in locals so concurrent inference forwards on a shared model
  // (parallel PTQ calibration/eval) don't race; caches move into members
  // only under ctx.train, where runs are single-threaded.  Pointer loops
  // over contiguous [h*w] planes (plane p = b*c_ + c), summed in row-major
  // order.
  const int n = x.dim(0);
  const std::size_t hw = static_cast<std::size_t>(x.dim(2)) * x.dim(3);
  const std::size_t planes = static_cast<std::size_t>(n) * c_;
  Tensor pooled({n, c_});
  const float inv = 1.f / static_cast<float>(hw);
  for (std::size_t p = 0; p < planes; ++p) {
    const float* xp = x.raw() + p * hw;
    float acc = 0.f;
    for (std::size_t i = 0; i < hw; ++i) acc += xp[i];
    pooled.raw()[p] = acc * inv;
  }
  // fc1's ReLU is applied by SEBlock itself (no Activation module and no
  // intermediate quant hook), so fusing it into fc1's GEMM write-back is
  // legal even under a quant session; backward needs nothing from z1 either,
  // but training keeps the explicit form so fc1 caches its input.
  Tensor h1;
  if (ctx.train) {
    Tensor z1 = fc1_.forward(pooled, ctx);
    h1 = Tensor(z1.shape());
    for (std::int64_t i = 0; i < z1.numel(); ++i) h1[i] = z1[i] > 0.f ? z1[i] : 0.f;
  } else {
    h1 = fc1_.forward_fused(pooled, ctx, gemm::Epilogue::kReLU);
  }
  Tensor z2 = fc2_.forward(h1, ctx);
  Tensor gate(z2.shape());
  for (std::int64_t i = 0; i < z2.numel(); ++i)
    gate[i] = gemm::sigmoid_eval(z2[i]);
  Tensor y(x.shape());
  for (std::size_t p = 0; p < planes; ++p) {
    const float g = gate.raw()[p];
    const float* xp = x.raw() + p * hw;
    float* yp = y.raw() + p * hw;
    for (std::size_t i = 0; i < hw; ++i) yp[i] = xp[i] * g;
  }
  if (ctx.train) {
    x_cache_ = x;
    h1_ = std::move(h1);
    gate_ = std::move(gate);
  }
  return y;
}

Tensor SEBlock::backward(const Tensor& grad_out) {
  const Tensor& x = x_cache_;
  const int n = x.dim(0);
  const std::size_t hw = static_cast<std::size_t>(x.dim(2)) * x.dim(3);
  const std::size_t planes = static_cast<std::size_t>(n) * c_;
  Tensor dgate({n, c_});
  Tensor dx(x.shape());
  for (std::size_t p = 0; p < planes; ++p) {
    const float g = gate_.raw()[p];
    const float* gp = grad_out.raw() + p * hw;
    const float* xp = x.raw() + p * hw;
    float* dp = dx.raw() + p * hw;
    float acc = 0.f;
    for (std::size_t i = 0; i < hw; ++i) {
      dp[i] = gp[i] * g;      // direct path
      acc += gp[i] * xp[i];   // gate path
    }
    dgate.raw()[p] = acc;
  }
  // Through the sigmoid.
  Tensor dz2(dgate.shape());
  for (std::int64_t i = 0; i < dz2.numel(); ++i) {
    const float g = gate_[i];
    dz2[i] = dgate[i] * g * (1.f - g);
  }
  Tensor dh1 = fc2_.backward(dz2);
  for (std::int64_t i = 0; i < dh1.numel(); ++i)
    if (h1_[i] <= 0.f) dh1[i] = 0.f;
  Tensor dpooled = fc1_.backward(dh1);
  const float inv = 1.f / static_cast<float>(hw);
  for (std::size_t p = 0; p < planes; ++p) {
    const float g = dpooled.raw()[p] * inv;
    float* dp = dx.raw() + p * hw;
    for (std::size_t i = 0; i < hw; ++i) dp[i] += g;
  }
  return dx;
}

}  // namespace mersit::nn
