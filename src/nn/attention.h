// Transformer-encoder components for the BERT-style GLUE experiments:
// token+position embedding, layer norm, multi-head self-attention, and the
// pre-LN encoder block.
//
// Sequence tensors are [N, T, D]; token id tensors are [N, T] (float-stored
// integer ids).
#pragma once

#include "nn/layers.h"

namespace mersit::nn {

class Embedding final : public Module {
 public:
  Embedding(int vocab, int max_len, int dim, std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "Embedding"; }
  Tensor forward(const Tensor& tokens, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<Embedding>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

  Param table;  ///< [vocab, dim]
  Param pos;    ///< [max_len, dim]

 private:
  int vocab_, max_len_, dim_;
  Tensor tok_cache_;
};

/// Layer normalization over the last dimension.
class LayerNorm final : public Module {
 public:
  explicit LayerNorm(int dim);

  [[nodiscard]] std::string name() const override { return "LayerNorm"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<LayerNorm>(*this); }
  [[nodiscard]] bool quant_point() const override { return true; }

  Param gamma, beta;

 private:
  int d_;
  float eps_ = 1e-5f;
  Tensor x_hat_, inv_std_;
};

class MultiHeadSelfAttention final : public Module {
 public:
  MultiHeadSelfAttention(int dim, int heads, std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "MHSA"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_children(std::vector<NamedChild>& out) override;
  [[nodiscard]] ModulePtr clone() const override {
    return std::make_unique<MultiHeadSelfAttention>(*this);
  }
  [[nodiscard]] bool quant_point() const override { return true; }
  /// The projections run through forward() directly, inside the fused
  /// attention computation; only the block's output is a hooked quant point.
  [[nodiscard]] bool runs_children() const override { return false; }

 private:
  int d_, h_, dh_;
  Linear wq_, wk_, wv_, wo_;
  // caches, written only when ctx.train (inference forwards must stay
  // re-entrant for the parallel PTQ loops)
  Tensor q_, k_, v_, attn_;
  int n_ = 0, t_ = 0;
};

/// Pre-LN transformer encoder block:
///   x = x + MHSA(LN1(x));  x = x + FF(LN2(x))  with FF = GELU MLP.
class TransformerBlock final : public Module {
 public:
  TransformerBlock(int dim, int heads, int ff_dim, std::mt19937& rng);

  [[nodiscard]] std::string name() const override { return "TransformerBlock"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_params(std::vector<Param*>& out) override;
  void collect_children(std::vector<NamedChild>& out) override;
  [[nodiscard]] ModulePtr clone() const override {
    return std::make_unique<TransformerBlock>(*this);
  }
  [[nodiscard]] bool quant_point() const override { return true; }

 private:
  int d_, ff_;
  LayerNorm ln1_, ln2_;
  MultiHeadSelfAttention attn_;
  Linear ff1_, ff2_;
  Activation gelu_{Act::kGELU};
  int n_ = 0, t_ = 0;
};

/// Select the first (CLS) position: [N,T,D] -> [N,D].
class ClsPool final : public Module {
 public:
  [[nodiscard]] std::string name() const override { return "ClsPool"; }
  Tensor forward(const Tensor& x, const Context& ctx) override;
  Tensor backward(const Tensor& grad_out) override;
  [[nodiscard]] ModulePtr clone() const override { return std::make_unique<ClsPool>(*this); }

 private:
  std::vector<int> x_shape_;
};

}  // namespace mersit::nn
