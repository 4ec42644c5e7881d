// Layer/module abstraction with explicit forward/backward and hooks for the
// PTQ pipeline.
//
// Quantization integrates through two seams:
//  * activation quantization: modules flagged as quant points pass their
//    output through Context::quant->on_activation() -- this is where the
//    PTQ harness observes calibration maxima and, at eval time, fake-
//    quantizes every tensor an accelerator would spill to 8-bit memory;
//  * weight quantization: Conv2d/Linear expose per-output-channel weight
//    spans via the ChannelWeights interface (the paper quantizes weights
//    per channel, activations per layer).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace mersit::nn {

class Module;
struct WeightCodes;  // nn/qweights.h — 8-bit code-domain weight view

/// PTQ hook: observes / rewrites activations at quant points.
class QuantSession {
 public:
  virtual ~QuantSession() = default;
  virtual void on_activation(const Module& layer, Tensor& t) = 0;

  /// Input-side hook: called on each batch before it enters the model, so
  /// sessions that quantize network inputs do it on the fly instead of
  /// materializing a quantized copy of the whole dataset.  Default: no-op.
  virtual void on_input(Tensor& t) { (void)t; }

  /// True when on_activation may be invoked concurrently from several
  /// evaluation threads (each on its own tensor).  Sessions that accumulate
  /// unguarded state (calibrators, probes) keep the default false and force
  /// the evaluators into their serial path.
  [[nodiscard]] virtual bool concurrent_safe() const { return false; }
};

struct Context {
  bool train = false;
  QuantSession* quant = nullptr;
};

/// A learnable parameter and its gradient accumulator.
///
/// The version counter stamps the value tensor's mutation history: every
/// seam that rewrites `value` in place (optimizer steps, per-channel weight
/// quantization, restore/unpack, BN folding) calls bump_version(), and
/// derived caches (prepacked GEMM panels, folded-BN weights) record the
/// version they were built from and rebuild on mismatch.  Reads/writes are
/// atomic so concurrent inference threads may validate a cache while a
/// (serial) mutator is absent; mutation itself is never concurrent with
/// forwards.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  Param() = default;
  // The atomic member deletes the implicit copies; a copied Param is a new
  // storage lineage, so it starts its own version history.
  Param(const Param& other) : value(other.value), grad(other.grad) {}
  Param& operator=(const Param& other) {
    if (this != &other) {
      value = other.value;
      grad = other.grad;
      bump_version();
    }
    return *this;
  }

  void zero_grad() { grad.zero(); }

  /// Current mutation stamp of `value` (starts at 1; never 0, so caches can
  /// use 0 as "never built").
  [[nodiscard]] std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  /// Record an in-place mutation of `value`.  Call after the write.
  void bump_version() { version_.fetch_add(1, std::memory_order_acq_rel); }

 private:
  std::atomic<std::uint64_t> version_{1};
};

/// Implemented by modules with per-output-channel quantizable weights.
class ChannelWeights {
 public:
  virtual ~ChannelWeights() = default;
  ChannelWeights() = default;
  // Codes are an immutable shared payload; a copied module (clone, value
  // copy) shares the installed instance — it stays valid for both, and the
  // per-instance id keys each module's own pack cache.
  ChannelWeights(const ChannelWeights& other) : codes_(other.weight_codes()) {}
  ChannelWeights& operator=(const ChannelWeights& other) {
    if (this != &other) set_weight_codes(other.weight_codes());
    return *this;
  }

  [[nodiscard]] virtual int weight_channels() const = 0;
  /// Mutable view of all weights feeding output channel `c`.
  [[nodiscard]] virtual std::span<float> channel_span(int c) = 0;
  /// The Param owning the storage channel_span views into.  Callers that
  /// mutate spans must bump_version() on it afterwards so prepacked-weight
  /// caches notice.
  [[nodiscard]] virtual Param& weight_param() = 0;

  /// Install / replace this module's 8-bit code-domain weights.  The
  /// payload is immutable; swapping in a new instance (new id) is what
  /// invalidates code-domain pack caches — no version bump involved, so a
  /// racing forward either keeps the complete old view or picks up the
  /// complete new one.
  void set_weight_codes(std::shared_ptr<const WeightCodes> codes) {
    const std::lock_guard<std::mutex> lock(codes_mu_);
    codes_ = std::move(codes);
  }
  void clear_weight_codes() { set_weight_codes(nullptr); }
  /// Snapshot of the installed codes (null when running pure FP32).
  [[nodiscard]] std::shared_ptr<const WeightCodes> weight_codes() const {
    const std::lock_guard<std::mutex> lock(codes_mu_);
    return codes_;
  }

 private:
  mutable std::mutex codes_mu_;
  std::shared_ptr<const WeightCodes> codes_;
};

class Module;
using ModulePtr = std::unique_ptr<Module>;

/// One direct child of a container module, with its structural name (the
/// path segment this child contributes, e.g. "body", "fc1", "stage1_block0").
struct NamedChild {
  std::string name;
  Module* module = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Compute the output; caches whatever backward() needs when ctx.train.
  virtual Tensor forward(const Tensor& x, const Context& ctx) = 0;
  /// Propagate gradients; accumulates into Param::grad, returns dL/dx.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Append this module's parameters.
  virtual void collect_params(std::vector<Param*>& out) { (void)out; }

  /// Append the direct children with their structural names, in execution
  /// order.  Leaf modules have none; containers override.  This single seam
  /// drives both the pointer traversal (collect_modules) and the named-path
  /// traversal (named_modules / assign_paths), so the two can never drift
  /// out of order.
  virtual void collect_children(std::vector<NamedChild>& out) { (void)out; }

  /// Pre-order traversal including `this` and all children.
  void collect_modules(std::vector<Module*>& out) {
    out.push_back(this);
    std::vector<NamedChild> ch;
    collect_children(ch);
    for (const NamedChild& c : ch) c.module->collect_modules(out);
  }

  /// Structural deep copy: same architecture, same parameter values and
  /// buffers (BN running stats, folded flags) and the same assigned paths,
  /// but no shared storage — a trained model can be replicated per thread
  /// for concurrent serving.  Transient forward/backward caches need not
  /// survive the copy.
  [[nodiscard]] virtual ModulePtr clone() const = 0;

  /// True when the output tensor would be spilled to (8-bit) memory.
  [[nodiscard]] virtual bool quant_point() const { return false; }

  /// True when forward() reaches every child through run(), so a child that
  /// is a quant point fires its own hook under a session.  Modules that call
  /// a child's forward() directly (SEBlock's squeeze/excite Linears, the
  /// attention projections) return false: those children are internal
  /// stages, quantized only as part of their parent's output.
  [[nodiscard]] virtual bool runs_children() const { return true; }

  /// Stable hierarchical path of this module within its tree (e.g.
  /// "resnet18/stage1_block0/residual/body/conv1").  Empty until
  /// assign_paths() runs on the root; the model factories assign paths
  /// before returning.
  [[nodiscard]] const std::string& path() const { return path_; }
  void set_path(std::string p) { path_ = std::move(p); }

  /// forward() plus the activation-quantization hook.
  Tensor run(const Tensor& x, const Context& ctx) {
    Tensor y = forward(x, ctx);
    if (ctx.quant != nullptr && quant_point()) ctx.quant->on_activation(*this, y);
    return y;
  }

  [[nodiscard]] std::vector<Param*> parameters() {
    std::vector<Param*> p;
    collect_params(p);
    return p;
  }
  [[nodiscard]] std::vector<Module*> modules() {
    std::vector<Module*> m;
    collect_modules(m);
    return m;
  }
  void zero_grad() {
    for (Param* p : parameters()) p->zero_grad();
  }

 private:
  std::string path_;
};

/// A module and its full path, as produced by named_modules().
struct NamedModuleRef {
  std::string path;
  Module* module = nullptr;
};

/// Pre-order walk of the tree rooted at `root` with the path each module
/// would carry under `root_name` (same order as collect_modules).  Paths
/// join child names with '/'; the root's path is `root_name` itself.
[[nodiscard]] std::vector<NamedModuleRef> named_modules(Module& root,
                                                        const std::string& root_name);

/// The quant points whose hooks fire in a forward of `root` under a
/// session: quant_point() modules reached from `root` only through parents
/// that run their children (Module::runs_children), in pre-order.  The
/// static counterpart of what a QuantSession observes.
[[nodiscard]] std::vector<Module*> hooked_quant_points(Module& root);

/// Walk the tree and store each module's path (see Module::path()).
/// Throws std::logic_error if two modules would share a path — structural
/// names must be unique among siblings.
void assign_paths(Module& root, const std::string& root_name);

}  // namespace mersit::nn
