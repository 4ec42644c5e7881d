// Core layers: linear, convolution (grouped/depthwise), batch norm with
// folding, activations, pooling, and composite blocks (sequential, residual,
// squeeze-excite).
#pragma once

#include <cstdint>
#include <mutex>

#include "nn/gemm/gemm.h"
#include "nn/gemm/qgemm.h"
#include "nn/module.h"

namespace mersit::nn {

class BatchNorm2d;

/// One prepacked-weight cache entry: the GEMM panel packs (one PackedMatrix
/// per conv group; a single entry for Linear; empty when the build skipped
/// packing) plus, for code-domain entries, the eagerly decoded FP32 weights
/// feeding the paths that read raw float pointers (depthwise/naive loops,
/// the small-problem direct GEMM, sgemm's shape validation).
struct PackedWeights {
  std::vector<gemm::PackedMatrix> packs;
  std::vector<float> decoded;
  /// Int8-path variants (MERSIT_QGEMM=int8 on an affine-LUT format): the
  /// level-domain weight panels (one PackedInt8 per conv group; a single
  /// entry for Linear) and the fused per-channel dequant scales
  /// AffineLut::scale * WeightCodes::scales[ch].  The int8 path never
  /// decodes floats, so `decoded`/`packs` stay empty in these entries.
  std::vector<gemm::PackedInt8> ipacks;
  std::vector<double> iscales;
};

/// Cache of prepacked GEMM operands for one weight Param, keyed on the
/// pair (Param version, source identity).  The version covers every seam
/// that rewrites the FP32 value in place (optimizer steps, PTQ
/// quantize/restore, artifact unpack, BN folding — all bump it).  The
/// identity covers *which source* the entry was built from: 0 for the FP32
/// value itself, or the process-unique WeightCodes id (never 0) for a
/// code-domain build — so a hot-swap that installs new codes for the same
/// shapes, racing a concurrent pack lookup, can never serve panels decoded
/// with the old format's LUT: the old entry's identity no longer matches.
/// Copies start empty: a cloned module repacks from its own storage.
class PackCache {
 public:
  PackCache() = default;
  PackCache(const PackCache&) noexcept {}
  PackCache& operator=(const PackCache&) noexcept { return *this; }

  /// The entry for `p.value` at its current version and the given source
  /// identity; `build` runs under the cache lock when either is stale.
  /// Weight mutation is never concurrent with inference forwards, so the
  /// returned reference stays valid for the duration of the forward.
  template <typename BuildFn>
  const PackedWeights& get(const Param& p, std::uint64_t identity,
                           BuildFn&& build) {
    const std::uint64_t v = p.version();
    const std::lock_guard<std::mutex> lock(mu_);
    if (version_ != v || identity_ != identity) {
      entry_ = build();
      version_ = v;
      identity_ = identity;
    }
    return entry_;
  }

 private:
  std::mutex mu_;
  std::uint64_t version_ = 0;  // 0 = never built (Param versions start at 1)
  std::uint64_t identity_ = 0;
  PackedWeights entry_;
};

/// Inference-only folded conv+BN weights (MERSIT_FOLD_BN), keyed on the
/// versions of all four contributing Params.  Same copy semantics as
/// PackCache.  Fields are populated by Conv2d::forward_folded under `mu`.
struct FoldCache {
  FoldCache() = default;
  FoldCache(const FoldCache&) noexcept {}
  FoldCache& operator=(const FoldCache&) noexcept { return *this; }

  std::mutex mu;
  std::uint64_t wv = 0, bv = 0, gv = 0, bev = 0;
  std::uint64_t bk = ~std::uint64_t{0};    ///< gemm Backend::id of `packs`
  std::vector<float> w, b;                 ///< folded weight / bias values
  std::vector<gemm::PackedMatrix> packs;   ///< per-group packs of `w`
};

/// True when the container fusions (skipping explicit Activation modules,
/// folding BN) are legal: inference only, and no quant session — the PTQ
/// hooks must observe every intermediate tensor a real accelerator would
/// spill.  Weight prepacking alone is value-preserving and stays active
/// under quant sessions; this gate covers the structural fusions.
[[nodiscard]] bool fuse_inference_ok(const Context& ctx);

class Linear final : public Module, public ChannelWeights {
 public:
  Linear(int in, int out, std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "Linear"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  /// forward() with a fused activation epilogue; `Epilogue::kNone` is plain
  /// forward().  In inference the weight panel comes from the prepack cache.
  Tensor forward_fused(const Tensor& x, const Context& ctx, gemm::Epilogue epi);
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Linear>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

  [[nodiscard]] int weight_channels() const override { return out_; }
  [[nodiscard]] std::span<float> channel_span(int c) override;
  [[nodiscard]] Param& weight_param() override { return weight; }

  Param weight;  ///< [out, in]
  Param bias;    ///< [out]

 private:
  /// Code-domain forward: GEMM operands come from `wc` (packed straight
  /// from the 8-bit codes); the FP32 weight Param is not read.  Dispatches
  /// to the Kulisch accumulator when eligible under MERSIT_QGEMM=kulisch.
  Tensor forward_codes(const Tensor& x, const Context& ctx,
                       const std::shared_ptr<const WeightCodes>& wc,
                       gemm::Epilogue epi);

  int in_, out_;
  Tensor x_cache_;
  PackCache packs_;
};

class Conv2d final : public Module, public ChannelWeights {
 public:
  /// Square kernel, same-style padding; `groups` divides both channel counts
  /// (groups == in == out gives a depthwise convolution).
  Conv2d(int in_ch, int out_ch, int ksize, int stride, int pad, int groups,
         std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "Conv2d"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  /// forward() with a fused activation epilogue applied after bias + full
  /// k-summation (bit-identical to a following Activation module).
  Tensor forward_fused(const Tensor& x, const Context& ctx, gemm::Epilogue epi);
  /// Inference-only conv with `bn` fused into the GEMM write-back as the
  /// per-channel affine it evaluates to (scale[c]*v + shift[c]) — the same
  /// arithmetic the BatchNorm2d module applies, so the result is
  /// bit-identical to conv→BN(→act) while skipping both separate passes.
  /// `bn` must be unfolded and channel-matched.
  Tensor forward_bn_fused(const Tensor& x, const Context& ctx,
                          const BatchNorm2d& bn, gemm::Epilogue epi);
  /// Inference-only conv with `bn` folded into weights/bias on the fly
  /// (tolerance-equal to conv→BN, not bit-identical; gated by
  /// MERSIT_FOLD_BN).  `bn` must be unfolded and channel-matched.
  Tensor forward_folded(const Tensor& x, const Context& ctx,
                        const BatchNorm2d& bn, gemm::Epilogue epi);
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Conv2d>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

  [[nodiscard]] int weight_channels() const override { return out_ch_; }
  [[nodiscard]] std::span<float> channel_span(int c) override;
  [[nodiscard]] Param& weight_param() override { return weight; }

  [[nodiscard]] int out_channels() const { return out_ch_; }

  Param weight;  ///< [out, in/groups, k, k]
  Param bias;    ///< [out]

 private:
  /// Shared forward body: runs the conv with the given weight/bias arrays
  /// (the live Params or the folded copies), optional per-group packs, and
  /// an optional fused per-channel affine (bn_scale/bn_shift, out_ch
  /// entries each, applied before `epi` at write-back).
  Tensor run_conv(const Tensor& x, const Context& ctx, const float* wt,
                  const float* bs, const gemm::PackedMatrix* group_packs,
                  gemm::Epilogue epi, const float* bn_scale = nullptr,
                  const float* bn_shift = nullptr);

  /// Code-domain forward (see Linear::forward_codes): decoded weights and
  /// per-group packs come from `wc`; bn_scale/bn_shift carry a fused BN
  /// affine when the caller is forward_bn_fused.
  Tensor forward_codes(const Tensor& x, const Context& ctx,
                       const std::shared_ptr<const WeightCodes>& wc,
                       gemm::Epilogue epi, const float* bn_scale = nullptr,
                       const float* bn_shift = nullptr);
  /// Exact-accumulation conv (MERSIT_QGEMM=kulisch): weight codes times
  /// re-encoded activation codes through the software quire.
  Tensor run_conv_kulisch(const Tensor& x, const WeightCodes& wc,
                          gemm::Epilogue epi);
  /// Decode-free conv (MERSIT_QGEMM=int8 on an affine-LUT format): weight
  /// levels times activation levels in int32, dequant at write-back.
  /// `cached` carries the per-group level packs and fused dequant scales;
  /// bn_scale/bn_shift fold a following inference BN exactly as run_conv.
  Tensor run_conv_int8(const Tensor& x, const WeightCodes& wc,
                       const PackedWeights& cached, gemm::Epilogue epi,
                       const float* bn_scale, const float* bn_shift);

  int in_ch_, out_ch_, k_, stride_, pad_, groups_;
  Tensor x_cache_;
  PackCache packs_;
  FoldCache fold_;
};

/// Batch normalization over [N,C,H,W] (per-channel).  Training uses batch
/// statistics and updates running estimates; inference uses running stats.
class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(int channels);

  [[nodiscard]] std::string name() const override { return "BatchNorm2d"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<BatchNorm2d>(*this); }
  // BN itself is folded before PTQ; not a quant point.

  /// Fold this BN into the preceding convolution:
  ///   w'[o,...] = w[o,...] * gamma[o]/sigma[o]
  ///   b'[o]     = (b[o] - mean[o]) * gamma[o]/sigma[o] + beta[o]
  /// After folding the BN becomes the identity.
  void fold_into(Conv2d& conv);

  [[nodiscard]] bool folded() const { return folded_; }
  [[nodiscard]] int channels() const { return c_; }
  [[nodiscard]] float eps() const { return eps_; }

  Param gamma, beta;
  Tensor running_mean, running_var;

 private:
  int c_;
  float momentum_ = 0.1f;
  float eps_ = 1e-5f;
  bool folded_ = false;
  // backward caches
  Tensor x_hat_, inv_std_;
  std::vector<int> x_shape_;
};

enum class Act { kReLU, kReLU6, kSiLU, kHardSwish, kGELU, kSigmoid, kTanh };

[[nodiscard]] const char* act_name(Act a);
[[nodiscard]] float act_eval(Act a, float x);

class Activation final : public Module {
 public:
  explicit Activation(Act kind) : kind_(kind) {}
  [[nodiscard]] std::string name() const override { return act_name(kind_); }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Activation>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }
  [[nodiscard]] Act kind() const { return kind_; }

 private:
  Act kind_;
  Tensor x_cache_;
};

/// 2x2 max pool, stride 2.
class MaxPool2d final : public Module {
 public:
  [[nodiscard]] std::string name() const override { return "MaxPool2d"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<MaxPool2d>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

 private:
  Tensor x_cache_;
  std::vector<std::int64_t> argmax_;
};

/// Global average pool [N,C,H,W] -> [N,C].
class GlobalAvgPool final : public Module {
 public:
  [[nodiscard]] std::string name() const override { return "GlobalAvgPool"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<GlobalAvgPool>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

 private:
  std::vector<int> x_shape_;
};

class Flatten final : public Module {
 public:
  [[nodiscard]] std::string name() const override { return "Flatten"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Flatten>(*this); }

 private:
  std::vector<int> x_shape_;
};

class Sequential final : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<ModulePtr> mods);
  /// Unnamed add: the child's structural name defaults to its index ("0",
  /// "1", ...), which stays stable because children are append-only.
  void add(ModulePtr m);
  /// Named add: the child contributes `name` as its path segment.
  void add(std::string child_name, ModulePtr m);

  [[nodiscard]] std::string name() const override { return "Sequential"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_children(std::vector<NamedChild>& out) override;
  [[nodiscard]] ModulePtr clone() const override;

  [[nodiscard]] std::size_t size() const { return mods_.size(); }
  [[nodiscard]] Module& operator[](std::size_t i) { return *mods_[i]; }

 private:
  std::vector<ModulePtr> mods_;
  std::vector<std::string> names_;  // parallel to mods_
};

/// y = body(x) + shortcut(x); shortcut may be null (identity, shapes must
/// match).  The sum is a quant point (the residual write-back).
class ResidualBlock final : public Module {
 public:
  ResidualBlock(ModulePtr body, ModulePtr shortcut)
      : body_(std::move(body)), shortcut_(std::move(shortcut)) {}

  [[nodiscard]] std::string name() const override { return "Residual"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_children(std::vector<NamedChild>& out) override;
  [[nodiscard]] ModulePtr clone() const override;
  [[nodiscard]] bool quant_point() const override { return true; }

 private:
  ModulePtr body_;
  ModulePtr shortcut_;  // may be null
};

/// Squeeze-and-excite: x * sigmoid(fc2(relu(fc1(avgpool(x))))).
class SEBlock final : public Module {
 public:
  SEBlock(int channels, int reduced, std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "SE"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_children(std::vector<NamedChild>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<SEBlock>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }
  /// fc1/fc2 run through forward() directly: their outputs never leave the
  /// block, so only the block's own output is a hooked quant point.
  [[nodiscard]] bool runs_children() const override { return false; }

 private:
  int c_;
  Linear fc1_, fc2_;
  Tensor x_cache_, h1_, gate_;  // written only when ctx.train
};

}  // namespace mersit::nn
