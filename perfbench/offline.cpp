// Offline phase: batch-32 forwards of the family's three models, each in
// three modes interleaved on every repetition:
//   fp32 — prepacked and fused, no quant session;
//   code — MERSIT(8,2) weight codes under a calibrated FakeQuantizer;
//   int8 — INT8 weight codes on the decode-free integer path under a
//          calibrated INT8 FakeQuantizer.
// Every forward is checked against the repo's contracts:
//   fp32 bitwise against the naive-loop reference forward;
//   code bitwise (ULP 0) against an FP32 forward over fake-quantized
//        weights under the same session;
//   int8 within a few output grid steps of the code path over the same
//        INT8 weights and session, with the same top-1 (on a tie of the
//        quantized logits, a class of the tied set) on at least 90% of the
//        rows (checked once, in setup),
//        and bitwise equal to that first int8 forward afterwards (the int8
//        path is deterministic across threads and backends).
//
// The traced run adds, per repetition, a leaf walk: each leaf's public
// forward runs on the input it receives in the model, unfused (the
// convention of the leaf timings quoted in ROADMAP), in its own span.
// What the leaves do not cover of the real forward is reported as
// nn.attributed_share.  It also times the nn/gemm kernels directly at the
// family's conv shapes.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <map>
#include <tuple>

#include "bench.h"
#include "core/registry.h"
#include "core/thread_pool.h"
#include "nn/data.h"
#include "nn/gemm/gemm.h"
#include "nn/gemm/im2col.h"
#include "nn/gemm/qgemm.h"
#include "nn/layers.h"

namespace perfbench {
namespace {

constexpr const char* kCodeFormat = "MERSIT(8,2)";
constexpr const char* kInt8Format = "INT8";
/// Offline pool width: fixed, so a host with more cores does not read as a
/// speedup, and recorded in the host block.  One thread, because on a
/// shared host a parallel region waits for its most-stolen vCPU: at width 2
/// the offline medians spread several times as far across runs as the
/// single-threaded replay did.
constexpr int kPoolWidth = 1;
constexpr int kCalibImages = 64;
/// Tolerance of int8 against the code path under one session, in grid
/// steps of the output quant point, which both paths share.  The int32
/// accumulation itself is within ~K·2^-24 of the float path
/// (nn/gemm/qgemm.h), but a fake-quantize point flips an element by one
/// full grid step when the two accumulations straddle a rounding boundary,
/// and the layers after it carry the flip on to the logits, amplified by
/// their gain.  The bound is a quarter of the output's calibrated range
/// (127 steps); seeded runs of the six models drift by 0-8 steps, and a
/// wrong scale or channel order moves logits by a large part of the range.
constexpr double kInt8MaxSteps = 32.0;
/// Share of rows on which int8 must keep the code path's top-1.  Not every
/// row: a row whose top two classes sit a grid step or two apart can flip
/// under the drift above.  A broken int8 path (a wrong scale or channel
/// order) agrees on far fewer rows.
constexpr double kInt8Top1Floor = 0.9;

enum Mode { kFp32, kCode, kInt8, kModes };
constexpr const char* kModeName[kModes] = {"fp32", "code", "int8"};

enum Leaf { kConvGemm, kDepthwise, kActivation, kSe, kBatchNorm, kResidual,
            kPoolLinear, kOther, kLeafKinds };
constexpr const char* kLeafSpan[kLeafKinds] = {
    "nn.conv_gemm", "nn.depthwise", "nn.activation", "nn.se",
    "nn.batchnorm", "nn.residual",  "nn.pool_linear", "nn.other"};

/// A module that hands back a precomputed tensor: lets the walk time the
/// library's own residual add (ResidualBlock::forward) on the branch
/// outputs it has already computed, without running the branches twice.
class Given final : public nn::Module {
 public:
  explicit Given(nn::Tensor t) : t_(std::move(t)) {}
  [[nodiscard]] std::string name() const override { return "Given"; }
  nn::Tensor forward(const nn::Tensor&, const nn::Context&) override {
    return std::move(t_);
  }
  nn::Tensor backward(const nn::Tensor&) override {
    throw std::logic_error("Given: inference only");
  }
  [[nodiscard]] nn::ModulePtr clone() const override {
    return std::make_unique<Given>(t_);
  }

 private:
  nn::Tensor t_;
};

Leaf classify(nn::Module& m, const nn::Tensor& x) {
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&m))
    return conv->weight.value.dim(1) == 1 && x.dim(1) > 1 ? kDepthwise : kConvGemm;
  if (dynamic_cast<nn::BatchNorm2d*>(&m) != nullptr) return kBatchNorm;
  if (dynamic_cast<nn::Activation*>(&m) != nullptr) return kActivation;
  if (dynamic_cast<nn::SEBlock*>(&m) != nullptr) return kSe;
  if (dynamic_cast<nn::MaxPool2d*>(&m) != nullptr ||
      dynamic_cast<nn::GlobalAvgPool*>(&m) != nullptr ||
      dynamic_cast<nn::Flatten*>(&m) != nullptr ||
      dynamic_cast<nn::Linear*>(&m) != nullptr)
    return kPoolLinear;
  return kOther;
}

using LeafHook = void (*)(void* user, nn::Module& m, const nn::Tensor& in,
                          const nn::Tensor& out);

/// Runs a model leaf by leaf, as its containers would under a quant session
/// (unfused), with one span per leaf forward.
struct Walker {
  Tracer& tr;
  std::uint64_t id;
  const nn::Context& ctx;
  LeafHook hook = nullptr;
  void* user = nullptr;

  nn::Tensor walk(nn::Module& m, const nn::Tensor& x) {
    if (dynamic_cast<nn::Sequential*>(&m) != nullptr) {
      std::vector<nn::NamedChild> ch;
      m.collect_children(ch);
      nn::Tensor cur = x;
      for (const nn::NamedChild& c : ch) cur = walk(*c.module, cur);
      return cur;
    }
    if (dynamic_cast<nn::ResidualBlock*>(&m) != nullptr) {
      std::vector<nn::NamedChild> ch;
      m.collect_children(ch);
      nn::Tensor main = walk(*ch[0].module, x);
      nn::ModulePtr skip;
      if (ch.size() > 1) skip = std::make_unique<Given>(walk(*ch[1].module, x));
      nn::ResidualBlock add(std::make_unique<Given>(std::move(main)), std::move(skip));
      add.set_path(m.path());  // the calibration table keys the add's quant point
      const Scoped s(tr, kLeafSpan[kResidual], id);
      return add.run(x, ctx);
    }
    nn::Tensor y;
    {
      const Scoped s(tr, kLeafSpan[classify(m, x)], id);
      y = m.run(x, ctx);
    }
    if (hook != nullptr) hook(user, m, x, y);
    return y;
  }
};

/// Wraps a FakeQuantizer so each activation fake-quantization is a span
/// (ptq.fake_quant) and its elements are counted.
class TimedSession final : public nn::QuantSession {
 public:
  TimedSession(nn::QuantSession& inner, Tracer& tr) : inner_(inner), tr_(tr) {}
  void on_activation(const nn::Module& layer, nn::Tensor& t) override {
    const Scoped s(tr_, "ptq.fake_quant", id);
    inner_.on_activation(layer, t);
    if (elems != nullptr) *elems += static_cast<double>(t.numel());
  }
  std::uint64_t id = 0;
  double* elems = nullptr;  ///< element counter of the current forward

 private:
  nn::QuantSession& inner_;
  Tracer& tr_;
};

/// The top-1 classes of a row of logits: every class at the row's maximum.
/// The quantized logits sit on the output grid of the last quant point, so
/// exact ties are common, and on a tie the top-1 is the tied set rather
/// than whichever index comes first.
std::vector<bool> top1_set(const float* r, int n) {
  const float top = *std::max_element(r, r + n);
  std::vector<bool> s(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) s[static_cast<std::size_t>(i)] = r[i] == top;
  return s;
}

/// int8 against the code path: every logit within kInt8MaxSteps grid steps
/// of `step` (the largest drift returned in `max_steps`), and the same top-1
/// on at least kInt8Top1Floor of the rows (the rows that differ in
/// `top1_delta`).  A row agrees when the two top-1 sets share a class.
bool int8_within_contract(const nn::Tensor& code, const nn::Tensor& int8, double step,
                          double& max_steps, int& top1_delta) {
  max_steps = 0.0;
  top1_delta = 0;
  if (code.shape() != int8.shape() || !(step > 0.0)) return false;
  const auto dc = code.data(), di = int8.data();
  for (std::size_t i = 0; i < dc.size(); ++i)
    max_steps = std::max(max_steps, std::fabs(static_cast<double>(di[i]) - dc[i]) / step);
  const int rows = code.dim(0), classes = code.dim(1);
  for (int b = 0; b < rows; ++b) {
    const std::vector<bool> tc = top1_set(code.raw() + b * classes, classes);
    const std::vector<bool> ti = top1_set(int8.raw() + b * classes, classes);
    bool shared = false;
    for (int i = 0; i < classes; ++i) shared = shared || (tc[i] && ti[i]);
    if (!shared) ++top1_delta;
  }
  return max_steps <= kInt8MaxSteps && rows - top1_delta >= kInt8Top1Floor * rows;
}

/// The pitch of the INT8 level grid: the affine step of the decode LUT
/// installed on `model` (0 when no layer carries one).
double int8_pitch(nn::Module& model) {
  for (nn::Module* m : model.modules())
    if (const auto* cw = dynamic_cast<nn::ChannelWeights*>(m))
      if (const auto wc = cw->weight_codes(); wc != nullptr && wc->affine != nullptr)
        return wc->affine->scale;
  return 0.0;
}

double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

// ------------------------------------------------------ shape capture ----

struct ShapeCapture {
  std::map<const nn::Module*, std::size_t> index;  ///< fp32 module -> modules() index
  std::vector<nn::Module*> code_mods, int8_mods;
  std::vector<ConvShape>* out = nullptr;
};

void capture_conv(void* user, nn::Module& m, const nn::Tensor& x, const nn::Tensor& y) {
  auto& cap = *static_cast<ShapeCapture*>(user);
  auto* conv = dynamic_cast<nn::Conv2d*>(&m);
  if (conv == nullptr || conv->weight.value.dim(1) != x.dim(1)) return;  // groups == 1 only
  ConvShape s;
  s.batch = x.dim(0), s.c = x.dim(1), s.h = x.dim(2), s.w = x.dim(3);
  s.ks = conv->weight.value.dim(2);
  s.m = conv->out_channels();
  s.k = s.c * s.ks * s.ks;
  const int oh = y.dim(2), ow = y.dim(3);
  s.n = s.batch * oh * ow;
  bool found = false;
  for (const int pad : {s.ks / 2, 0}) {
    for (int st = 1; st <= 4 && !found; ++st)
      if ((s.h + 2 * pad - s.ks) / st + 1 == oh && (s.w + 2 * pad - s.ks) / st + 1 == ow) {
        s.stride = st, s.pad = pad, found = true;
      }
    if (found) break;
  }
  if (!found) return;
  for (const ConvShape& o : *cap.out)
    if (std::tie(o.m, o.k, o.n, o.h, o.w, o.stride, o.pad) ==
        std::tie(s.m, s.k, s.n, s.h, s.w, s.stride, s.pad))
      return;
  const auto w = conv->weight.value.data();
  s.weight.assign(w.begin(), w.end());
  const auto b = conv->bias.value.data();
  s.bias.assign(b.begin(), b.end());
  const std::size_t idx = cap.index.at(&m);
  s.code_w = dynamic_cast<nn::ChannelWeights&>(*cap.code_mods[idx]).weight_codes();
  s.int8_w = dynamic_cast<nn::ChannelWeights&>(*cap.int8_mods[idx]).weight_codes();
  if (s.code_w == nullptr || s.int8_w == nullptr || s.int8_w->affine == nullptr) return;
  s.input = x;
  cap.out->push_back(std::move(s));
}

}  // namespace

// ------------------------------------------------------------- setup ----

std::unique_ptr<OfflineSetup> setup_offline(const Family& fam, const Models& models,
                                            std::uint32_t seed, PtqTimes& ptq_times, Result& res) {
  core::resize_global_pool(kPoolWidth);
  auto s = std::make_unique<OfflineSetup>();
  s->pool_width = core::global_pool().size();
  s->fmt_code = core::make_format(kCodeFormat);
  s->fmt_int8 = core::make_format(kInt8Format);
  const formats::Format& fmt_code = *s->fmt_code;
  const formats::Format& fmt_int8 = *s->fmt_int8;
  const nn::Dataset calib =
      nn::make_vision_dataset(kCalibImages, 3, kImg, derive(seed, 11));
  const nn::Dataset eval = nn::make_vision_dataset(kBatch, 3, kImg, derive(seed, 12));
  const nn::Context plain;

  for (std::size_t mi = 0; mi < fam.offline_models.size(); ++mi) {
    auto& om = *s->models.emplace_back(std::make_unique<OfflineModel>());
    om.name = fam.offline_models[mi];
    om.fp32 = models.get(om.name);
    om.x = eval.inputs;

    // fp32 reference: the naive loops, the repo's bitwise oracle.
    nn::gemm::set_enabled(false);
    om.ref_fp32 = om.fp32->forward(om.x, plain);
    nn::gemm::set_enabled(true);

    std::int64_t t0 = now_ns();
    om.table = ptq::calibrate_model(*om.fp32, calib);
    ptq_times.calibrate_s += ms_since(t0) / 1e3;
    om.fq_code = std::make_unique<ptq::FakeQuantizer>(om.table, fmt_code,
                                                      formats::ScalePolicy::kMaxToUnity);
    om.fq_int8 = std::make_unique<ptq::FakeQuantizer>(om.table, fmt_int8,
                                                      formats::ScalePolicy::kMaxToUnity);
    om.xq_code = om.x;
    om.fq_code->quantize_input(om.xq_code);
    om.xq_int8 = om.x;
    om.fq_int8->quantize_input(om.xq_int8);
    const nn::Context cctx{false, om.fq_code.get()};
    const nn::Context ictx{false, om.fq_int8.get()};

    // Code reference: FP32 forward over fake-quantized weights, same session.
    {
      nn::ModulePtr q = om.fp32->clone();
      ptq::quantize_weights_per_channel(*q, fmt_code, formats::ScalePolicy::kMaxToUnity);
      nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kFloat);
      om.ref_code = q->forward(om.xq_code, cctx);
    }
    // Int8 reference: the code path over the same INT8 weights and session.
    nn::Tensor int8_code_ref;
    {
      nn::ModulePtr q = om.fp32->clone();
      ptq::install_weight_codes(*q, fmt_int8, formats::ScalePolicy::kMaxToUnity);
      nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kCode);
      int8_code_ref = q->forward(om.xq_int8, ictx);
    }

    om.code = om.fp32->clone();
    om.int8 = om.fp32->clone();
    t0 = now_ns();
    ptq::install_weight_codes(*om.code, fmt_code, formats::ScalePolicy::kMaxToUnity);
    ptq::install_weight_codes(*om.int8, fmt_int8, formats::ScalePolicy::kMaxToUnity);
    ptq_times.install_codes_ms += ms_since(t0);

    // Warm every prepack cache in its one mode (and check the first outputs).
    nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kFloat);
    res.check(same_bits(om.fp32->forward(om.x, plain), om.ref_fp32),
              om.name + " fp32 warm-up differs from the naive reference");
    nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kCode);
    res.check(same_bits(om.code->forward(om.xq_code, cctx), om.ref_code),
              om.name + " code warm-up is not ULP 0 against fake-quantized FP32");
    nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kInt8);
    om.ref_int8 = om.int8->forward(om.xq_int8, ictx);
    // Output grid step: the INT8 level pitch times the output's tensor scale.
    const double step = int8_pitch(*om.int8) * int8_code_ref.quant_scale();
    double max_steps = 0.0;
    int top1_delta = 0;
    res.check(int8_within_contract(int8_code_ref, om.ref_int8, step, max_steps, top1_delta),
              om.name + " int8 outside tolerance or top-1 of the code path");
    res.detail.push_back("\"int8_max_steps_" + om.name + "\": " + json_num(max_steps));
    res.detail.push_back("\"int8_top1_delta_" + om.name + "\": " + std::to_string(top1_delta));
  }

  return s;
}

// ------------------------------------------------------------- GEMM ----

namespace {

struct GemmTotals {
  double flops = 0, bytes_im2col = 0;
  double sgemm_ns = 0, code_ns = 0, int8_ns = 0, im2col_ns = 0, pack_ns = 0;
};

/// One pass of direct nn/gemm calls over every captured conv shape.
struct GemmBench {
  struct Prepared {
    const ConvShape* s;
    std::vector<float> col;                 ///< im2col of the real input
    std::vector<std::int8_t> qcol;          ///< its int8 levels
    std::vector<float> code_dec;            ///< decoded MERSIT weights
    std::vector<double> iscales;            ///< INT8 dequant scales per row
    double xscale = 0.0;
    nn::gemm::PackedMatrix pa, pa_code;
    nn::gemm::PackedInt8 pa_int8;
    std::vector<float> c;
  };
  std::vector<Prepared> prep;

  explicit GemmBench(const std::vector<ConvShape>& shapes) {
    for (const ConvShape& s : shapes) {
      Prepared p;
      p.s = &s;
      const int osz = s.n / s.batch;
      p.col.resize(static_cast<std::size_t>(s.k) * s.n);
      im2col_all(s, p.col.data());
      const nn::gemm::AffineLut& alut = *s.int8_w->affine;
      p.xscale = std::max(1e-12, static_cast<double>(s.input.abs_max())) / alut.qmax;
      p.qcol.resize(static_cast<std::size_t>(s.k) * s.n);
      for (int b = 0; b < s.batch; ++b)
        nn::gemm::im2col_int8(s.input.raw() + static_cast<std::size_t>(b) * s.c * s.h * s.w,
                              s.c, s.h, s.w, s.ks, s.stride, s.pad,
                              1.0 / (alut.scale * p.xscale), alut.qmin, alut.qmax,
                              p.qcol.data() + static_cast<std::size_t>(b) * osz, s.n);
      p.code_dec.resize(s.code_w->codes.size());
      nn::gemm::decode_codes(s.code_w->codes.data(), s.code_w->codes.size(), s.code_w->lut,
                             s.code_w->scales.data(),
                             static_cast<std::size_t>(s.code_w->per_channel),
                             p.code_dec.data());
      for (int o = 0; o < s.m; ++o) p.iscales.push_back(alut.scale * s.int8_w->scales[o]);
      p.pa = nn::gemm::pack_a_matrix(s.m, s.k, s.weight.data(), s.k, false);
      p.pa_code = nn::gemm::pack_a_codes(s.m, s.k, s.code_w->codes.data(), s.k, false,
                                         s.code_w->lut, s.code_w->scales.data());
      p.pa_int8 = nn::gemm::pack_a_int8_matrix(s.m, s.k, s.int8_w->codes.data(), s.k,
                                               false, alut.q);
      p.c.resize(static_cast<std::size_t>(s.m) * s.n);
      prep.push_back(std::move(p));
    }
  }

  static void im2col_all(const ConvShape& s, float* col) {
    const int osz = s.n / s.batch;
    for (int b = 0; b < s.batch; ++b)
      nn::gemm::im2col(s.input.raw() + static_cast<std::size_t>(b) * s.c * s.h * s.w, s.c,
                       s.h, s.w, s.ks, s.stride, s.pad,
                       col + static_cast<std::size_t>(b) * osz, s.n);
  }

  void pass(Tracer& tr, std::uint64_t id, GemmTotals& t) {
    using nn::gemm::Init;
    for (Prepared& p : prep) {
      const ConvShape& s = *p.s;
      const double flops = 2.0 * s.m * s.n * s.k;
      t.flops += flops;
      t.bytes_im2col += 4.0 * (static_cast<double>(s.k) * s.n +
                               static_cast<double>(s.batch) * s.c * s.h * s.w);
      std::int64_t t0 = now_ns();
      {
        const Scoped sp(tr, "gemm.im2col", id);
        im2col_all(s, p.col.data());
      }
      std::int64_t t1 = now_ns();
      t.im2col_ns += static_cast<double>(t1 - t0);
      {
        const Scoped sp(tr, "gemm.sgemm", id);
        nn::gemm::sgemm(s.m, s.n, s.k, s.weight.data(), s.k, false, p.col.data(), s.n,
                        false, p.c.data(), s.n, Init::kBiasRow, s.bias.data(), nullptr,
                        nn::gemm::Epilogue::kNone, &p.pa);
      }
      t0 = now_ns();
      t.sgemm_ns += static_cast<double>(t0 - t1);
      {
        const Scoped sp(tr, "gemm.qgemm_code", id);
        nn::gemm::sgemm(s.m, s.n, s.k, p.code_dec.data(), s.k, false, p.col.data(), s.n,
                        false, p.c.data(), s.n, Init::kBiasRow, s.bias.data(), nullptr,
                        nn::gemm::Epilogue::kNone, &p.pa_code);
      }
      t1 = now_ns();
      t.code_ns += static_cast<double>(t1 - t0);
      {
        const Scoped sp(tr, "gemm.qgemm_int8", id);
        const nn::gemm::AffineLut& alut = *s.int8_w->affine;
        const nn::gemm::Int8Operand a{s.int8_w->codes.data(), s.k, false, alut.q,
                                      p.iscales.data(), 0.0};
        const nn::gemm::Int8Operand b{reinterpret_cast<const std::uint8_t*>(p.qcol.data()),
                                      s.n, false, nn::gemm::identity_qlut(), nullptr,
                                      alut.scale * p.xscale};
        nn::gemm::qgemm_int8(s.m, s.n, s.k, a, b, Init::kBiasRow, s.bias.data(),
                             p.c.data(), s.n, nullptr, nn::gemm::Epilogue::kNone,
                             &p.pa_int8);
      }
      t0 = now_ns();
      t.int8_ns += static_cast<double>(t0 - t1);
      {
        const Scoped sp(tr, "gemm.pack_codes", id);
        const nn::gemm::PackedMatrix pk =
            nn::gemm::pack_a_codes(s.m, s.k, s.code_w->codes.data(), s.k, false,
                                   s.code_w->lut, s.code_w->scales.data());
        if (pk.empty()) throw std::logic_error("pack_a_codes returned an empty pack");
      }
      t.pack_ns += static_cast<double>(now_ns() - t0);
    }
  }
};

/// Every groups==1 conv of the family with the input it receives in the
/// model, captured by an untimed fp32 leaf walk.
std::vector<ConvShape> capture_shapes(OfflineSetup& s) {
  std::vector<ConvShape> shapes;
  Tracer off(false);
  const nn::Context plain;
  nn::gemm::set_qgemm_mode(nn::gemm::QgemmMode::kFloat);
  for (auto& omp : s.models) {
    OfflineModel& om = *omp;
    ShapeCapture cap;
    const std::vector<nn::Module*> mods = om.fp32->modules();
    for (std::size_t i = 0; i < mods.size(); ++i) cap.index[mods[i]] = i;
    cap.code_mods = om.code->modules();
    cap.int8_mods = om.int8->modules();
    cap.out = &shapes;
    Walker w{off, 0, plain, &capture_conv, &cap};
    (void)w.walk(*om.fp32, om.x);
  }
  return shapes;
}

}  // namespace

// --------------------------------------------------------------- run ----

struct OfflineRun::State {
  struct Meta {
    int rep, mode;
  };
  std::vector<Meta> meta{Meta{}};  // trace id -> (rep, mode); id 0 unused
  std::vector<std::array<double, kModes>> plain_ns;  // per rep, summed over models
  std::vector<std::array<double, kModes>> elems;     // fake-quantized elements
  std::vector<std::unique_ptr<TimedSession>> code_sess, int8_sess;
};

OfflineRun::OfflineRun(OfflineSetup& s, Tracer& tracer, Result& res)
    : s_(s), tracer_(tracer), res_(res), st_(std::make_unique<State>()) {
  for (auto& om : s.models) {
    st_->code_sess.push_back(std::make_unique<TimedSession>(*om->fq_code, tracer));
    st_->int8_sess.push_back(std::make_unique<TimedSession>(*om->fq_int8, tracer));
  }
}

OfflineRun::~OfflineRun() = default;

void OfflineRun::rep() {
  if (core::global_pool().size() != kPoolWidth) core::resize_global_pool(kPoolWidth);
  OfflineSetup& s = s_;
  Tracer& tracer = tracer_;
  Result& res = res_;
  State& st = *st_;
  const bool traced = tracer.enabled();
  const int rep = static_cast<int>(st.plain_ns.size());
  std::array<double, kModes> ns{};
  std::array<double, kModes> el{};
  for (std::size_t mi = 0; mi < s.models.size(); ++mi) {
    OfflineModel& om = *s.models[mi];
    for (int j = 0; j < kModes; ++j) {
      const int mode = (rep + j) % kModes;  // rotate so no mode always goes first
      nn::Module* model = mode == kFp32 ? om.fp32.get()
                          : mode == kCode ? om.code.get() : om.int8.get();
      const nn::Tensor& x = mode == kFp32 ? om.x : mode == kCode ? om.xq_code : om.xq_int8;
      const nn::Tensor& ref =
          mode == kFp32 ? om.ref_fp32 : mode == kCode ? om.ref_code : om.ref_int8;
      nn::QuantSession* fq = mode == kFp32 ? nullptr
                             : mode == kCode ? static_cast<nn::QuantSession*>(om.fq_code.get())
                                             : om.fq_int8.get();
      nn::gemm::set_qgemm_mode(mode == kFp32   ? nn::gemm::QgemmMode::kFloat
                               : mode == kCode ? nn::gemm::QgemmMode::kCode
                                               : nn::gemm::QgemmMode::kInt8);
      const std::string what = om.name + " " + kModeName[mode];

      const std::int64_t t0 = now_ns();
      nn::Tensor y = model->forward(x, nn::Context{false, fq});
      ns[mode] += static_cast<double>(now_ns() - t0);
      res.check(same_bits(y, ref), what + " forward differs from its reference");
      if (!traced) continue;

      TimedSession* ts = mode == kFp32 ? nullptr
                         : mode == kCode ? st.code_sess[mi].get() : st.int8_sess[mi].get();
      const nn::Context tctx{false, ts};
      const std::uint64_t id = st.meta.size();
      st.meta.push_back({rep, mode});
      if (ts != nullptr) ts->id = id, ts->elems = &el[mode];
      {
        const Scoped sp(tracer, "forward", id);
        y = model->forward(x, tctx);
      }
      res.check(same_bits(y, ref), what + " traced forward differs from its reference");
      if (ts != nullptr) ts->elems = nullptr;
      {
        const Scoped sp(tracer, "walk", id);
        Walker w{tracer, id, tctx};
        y = w.walk(*model, x);
      }
      res.check(same_bits(y, ref), what + " leaf walk differs from the model forward");
    }
  }
  st.plain_ns.push_back(ns);
  st.elems.push_back(el);
}

void OfflineRun::finish(double gemm_seconds) {
  OfflineSetup& s = s_;
  Tracer& tracer = tracer_;
  Result& res = res_;
  const auto& plain_ns = st_->plain_ns;
  const auto& elems = st_->elems;
  const auto& meta = st_->meta;
  using Meta = State::Meta;
  const bool traced = tracer.enabled();
  const double images = static_cast<double>(s.models.size()) * kBatch;
  const std::size_t reps = plain_ns.size();
  res.detail.push_back("\"offline_reps\": " + std::to_string(reps));
  if (!traced) {
    for (int mode = 0; mode < kModes; ++mode) {
      std::vector<double> ms;
      for (const auto& ns : plain_ns) ms.push_back(ns[mode] / 1e6);
      const Summary sm = summarize(ms);
      res.e(std::string(kModeName[mode]) + "_img_per_s", images / (sm.median / 1e3), "img/s");
      res.detail.push_back("\"" + std::string(kModeName[mode]) + "_forward_set_ms\": " +
                           summary_json(sm));
    }
    return;
  }

  // --- per-layer attribution from the spans --------------------------------
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<std::array<std::array<double, kLeafKinds>, kModes>> leaf(reps);
  std::vector<std::array<double, kModes>> fwd(reps), cover(reps), fq(reps);
  std::vector<double> fq_calls(reps);
  for (auto& a : leaf) for (auto& b : a) b.fill(0.0);
  for (std::size_t r = 0; r < reps; ++r) fwd[r].fill(0), cover[r].fill(0), fq[r].fill(0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (sp.trace == 0 || sp.trace >= meta.size()) continue;
    const Meta& mt = meta[sp.trace];
    const auto r = static_cast<std::size_t>(mt.rep);
    const char* parent = sp.parent >= 0 ? spans[static_cast<std::size_t>(sp.parent)].name : "";
    const std::string name = sp.name;
    if (name == "forward") {
      fwd[r][mt.mode] += static_cast<double>(sp.duration());
    } else if (name == "ptq.fake_quant") {
      if (std::strcmp(parent, "forward") == 0) {
        fq[r][mt.mode] += static_cast<double>(self[i]);
        fq_calls[r] += 1;
      }
    } else {
      for (int k = 0; k < kLeafKinds; ++k)
        if (name == kLeafSpan[k]) leaf[r][mt.mode][k] += static_cast<double>(self[i]);
      if (std::strcmp(parent, "walk") == 0) cover[r][mt.mode] += static_cast<double>(sp.duration());
    }
  }
  auto med = [&](auto f) {
    std::vector<double> v;
    for (std::size_t r = 0; r < reps; ++r) v.push_back(f(r));
    return median(v);
  };
  for (int mode = 0; mode < kModes; ++mode) {
    const std::string suffix = std::string(".") + kModeName[mode];
    for (int k = 0; k < kLeafKinds; ++k) {
      if (k == kOther) continue;  // no zoo leaf lands here; counted in the share
      res.l(std::string(kLeafSpan[k]) + ".self_ms" + suffix,
            med([&](std::size_t r) { return leaf[r][mode][k] / 1e6; }), "ms");
    }
    res.l("nn.attributed_share" + suffix,
          med([&](std::size_t r) { return cover[r][mode] / fwd[r][mode]; }), "ratio");
  }
  res.l("ptq.fake_quant.self_ms",
        med([&](std::size_t r) { return (fq[r][kCode] + fq[r][kInt8]) / 1e6; }), "ms");
  res.l("ptq.fake_quant.calls", med([&](std::size_t r) { return fq_calls[r]; }), "count");
  res.l("formats.fake_quant_melem_per_s." + metric_tag(kCodeFormat),
        med([&](std::size_t r) { return elems[r][kCode] / (fq[r][kCode] / 1e9) / 1e6; }),
        "Melem/s");
  res.l("formats.fake_quant_melem_per_s." + metric_tag(kInt8Format),
        med([&](std::size_t r) { return elems[r][kInt8] / (fq[r][kInt8] / 1e9) / 1e6; }),
        "Melem/s");
  res.l("trace.overhead_pct", 100.0 * (med([&](std::size_t r) {
          const double p = plain_ns[r][kFp32] + plain_ns[r][kCode] + plain_ns[r][kInt8];
          return (fwd[r][kFp32] + fwd[r][kCode] + fwd[r][kInt8]) / p;
        }) - 1.0), "%");

  // --- nn/gemm kernels at the family's conv shapes ---------------------------
  const std::vector<ConvShape> shapes = capture_shapes(s);
  GemmBench gb(shapes);
  std::vector<GemmTotals> passes;
  core::resize_global_pool(kPoolWidth);
  const std::int64_t gend = now_ns() + static_cast<std::int64_t>(gemm_seconds * 1e9);
  do {
    GemmTotals t;
    gb.pass(tracer, 0, t);
    passes.push_back(t);
  } while (now_ns() < gend);
  auto gmed = [&](auto f) {
    std::vector<double> v;
    for (const GemmTotals& t : passes) v.push_back(f(t));
    return median(v);
  };
  res.l("gemm.sgemm_gflops", gmed([](const GemmTotals& t) { return t.flops / t.sgemm_ns; }),
        "GFLOP/s");
  res.l("gemm.qgemm_code_gflops", gmed([](const GemmTotals& t) { return t.flops / t.code_ns; }),
        "GFLOP/s");
  res.l("gemm.qgemm_int8_gops", gmed([](const GemmTotals& t) { return t.flops / t.int8_ns; }),
        "GOP/s");
  res.l("gemm.im2col_gbps",
        gmed([](const GemmTotals& t) { return t.bytes_im2col / t.im2col_ns; }), "GB/s");
  res.l("gemm.pack_codes_ms", gmed([](const GemmTotals& t) { return t.pack_ns / 1e6; }), "ms");
  const double calls = static_cast<double>(shapes.size());
  res.l("gemm.shapes", calls, "count");
  res.l("gemm.mop_per_call", passes[0].flops / calls / 1e6, "Mop");
  double bytes = 0;
  for (const ConvShape& c : shapes)
    bytes += 4.0 * (static_cast<double>(c.m) * c.k + static_cast<double>(c.k) * c.n +
                    static_cast<double>(c.m) * c.n);
  res.l("gemm.kbytes_per_call", bytes / calls / 1e3, "kB");
}

}  // namespace perfbench
