// Gate-level replay phase: hw::MacReplay replays a fixed code trace through
// the FP(8,4), Posit(8,1) and MERSIT(8,2) MAC netlists, 64 lanes wide.  The
// trace is captured in setup from a seeded PTQ forward of the family's
// replay model, as fig7_mac_area_power captures it: for every layer with
// weights, the fake-quantized activation stream entering it, paired
// round-robin with the layer's per-channel weight codes.  The simulated
// statistics are deterministic, so every pass must reproduce the first
// pass's toggles and energy exactly; MacReplay itself cross-checks every
// lane's accumulator against hw::MacReference and throws on a mismatch.
#include <cmath>

#include "bench.h"
#include "core/registry.h"
#include "nn/data.h"
#include "nn/layers.h"

namespace perfbench {
namespace {

/// Images in the traced forward: sizes the trace (pairs per layer are
/// max(weights, activations), so the stream grows with the batch).
constexpr int kTraceImages = 8;
constexpr int kCalibImages = 64;

struct LayerTrace {
  std::string path;
  std::vector<float> acts;
  float act_absmax = 0.f;
};

/// Records, for each weight-carrying layer, the fake-quantized tensor at
/// the last 8-bit memory boundary before it: the operand stream a MAC
/// array would fetch.
class TraceCapture final : public nn::QuantSession {
 public:
  TraceCapture(const ptq::CalibrationTable& table, ptq::FakeQuantizer& fq,
               const nn::Tensor& quantized_input)
      : table_(table), fq_(fq) {
    const auto in = quantized_input.data();
    prev_.assign(in.begin(), in.end());
    prev_absmax_ = table.input_absmax;
  }
  void on_activation(const nn::Module& layer, nn::Tensor& t) override {
    if (dynamic_cast<const nn::ChannelWeights*>(&layer) != nullptr)
      traces.push_back({layer.path(), prev_, prev_absmax_});
    fq_.on_activation(layer, t);
    const auto d = t.data();
    prev_.assign(d.begin(), d.end());
    prev_absmax_ = table_.absmax.at(layer.path());
  }
  std::vector<LayerTrace> traces;

 private:
  const ptq::CalibrationTable& table_;
  ptq::FakeQuantizer& fq_;
  std::vector<float> prev_;
  float prev_absmax_ = 0.f;
};

std::vector<std::uint8_t> encode_channels(nn::ChannelWeights& cw, const formats::Format& fmt) {
  std::vector<std::uint8_t> codes;
  for (int c = 0; c < cw.weight_channels(); ++c) {
    const std::span<float> span = cw.channel_span(c);
    float absmax = 0.f;
    for (const float v : span) absmax = std::max(absmax, std::fabs(v));
    const double scale = formats::scale_for_absmax(fmt, absmax);
    for (const float v : span) codes.push_back(fmt.encode(static_cast<double>(v) / scale));
  }
  return codes;
}

hw::CodeStream layer_stream(const std::vector<std::uint8_t>& w, const formats::Format& fmt,
                            const LayerTrace& tr) {
  std::vector<std::uint8_t> a;
  a.reserve(tr.acts.size());
  const double scale = formats::scale_for_absmax(fmt, tr.act_absmax);
  for (const float v : tr.acts) a.push_back(fmt.encode(static_cast<double>(v) / scale));
  const std::size_t len = std::max(w.size(), a.size());
  hw::CodeStream s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) s.emplace_back(w[i % w.size()], a[i % a.size()]);
  return s;
}

struct PassStats {
  std::uint64_t toggles = 0;
  double energy_fj = 0.0;
  std::size_t pairs = 0, sweeps = 0;
};

PassStats replay_all(ReplayFormat& f) {
  PassStats p;
  for (const hw::CodeStream& st : f.streams) {
    const hw::ReplayStats r = f.replay->replay(st);
    p.toggles += r.toggles;
    p.energy_fj += r.energy_fj;
    p.pairs += r.pairs;
    p.sweeps += r.sweeps;
  }
  return p;
}

}  // namespace

std::unique_ptr<ReplaySetup> setup_replay(const Family& fam, const Models& models,
                                          std::uint32_t seed, PtqTimes& ptq_times, Result& res) {
  auto s = std::make_unique<ReplaySetup>();
  nn::ModulePtr model = models.get(fam.replay_model);
  nn::fold_all_batchnorms(*model);
  const nn::Dataset calib =
      nn::make_vision_dataset(kCalibImages, 3, kImg, derive(seed, 31));
  const nn::Dataset traced =
      nn::make_vision_dataset(kTraceImages, 3, kImg, derive(seed, 32));
  const std::int64_t t0 = now_ns();
  const ptq::CalibrationTable table = ptq::calibrate_model(*model, calib);
  ptq_times.calibrate_s += static_cast<double>(now_ns() - t0) / 1e9;

  for (const auto& fmt : core::headline_formats()) {
    ReplayFormat f;
    f.fmt = fmt;
    f.tag = metric_tag(fmt->name());
    ptq::FakeQuantizer fq(table, *fmt, formats::ScalePolicy::kMaxToUnity);
    nn::Tensor input = traced.inputs;
    fq.quantize_input(input);
    TraceCapture cap(table, fq, input);
    (void)model->run(input, nn::Context{false, &cap});
    for (const LayerTrace& tr : cap.traces)
      for (nn::Module* m : model->modules())
        if (m->path() == tr.path)
          f.streams.push_back(
              layer_stream(encode_channels(dynamic_cast<nn::ChannelWeights&>(*m), *fmt), *fmt, tr));
    const std::int64_t b0 = now_ns();
    f.replay = std::make_unique<hw::MacReplay>(*fmt);
    s->build_netlist_ms += static_cast<double>(now_ns() - b0) / 1e6;
    bool ok = true;
    try {
      const PassStats p = replay_all(f);
      f.toggles = p.toggles, f.energy_fj = p.energy_fj, f.pairs = p.pairs, f.sweeps = p.sweeps;
    } catch (const std::exception&) {
      ok = false;
    }
    res.check(ok && f.pairs > 0, f.tag + " first replay pass failed the MacReference cross-check");
    s->formats.push_back(std::move(f));
  }
  return s;
}

void ReplayRun::pass() {
  fmt_ms_.resize(s_.formats.size());
  const std::uint64_t id = (std::uint64_t{1} << 48) + mpairs_.size();
  std::size_t pairs = 0;
  double pass_ns = 0.0;
  for (std::size_t fi = 0; fi < s_.formats.size(); ++fi) {
    ReplayFormat& f = s_.formats[fi];
    const std::int64_t t0 = now_ns();
    PassStats p;
    bool ok = true;
    try {
      const Scoped sp(tracer_, "hw.replay", id);
      p = replay_all(f);
    } catch (const std::exception&) {
      ok = false;
    }
    const auto dt = static_cast<double>(now_ns() - t0);
    res_.check(ok && p.toggles == f.toggles && p.energy_fj == f.energy_fj,
               f.tag + " replay differs from the first pass or failed the MacReference "
                       "cross-check");
    fmt_ms_[fi].push_back(dt / 1e6);
    pairs += p.pairs;
    pass_ns += dt;
  }
  mpairs_.push_back(static_cast<double>(pairs) / (pass_ns / 1e3));
}

void ReplayRun::finish() {
  res_.e("replay_mpairs_per_s", median(mpairs_), "Mpairs/s");
  std::vector<double> pass_ms(mpairs_.size(), 0.0);
  for (const std::vector<double>& f : fmt_ms_)
    for (std::size_t i = 0; i < f.size(); ++i) pass_ms[i] += f[i];
  res_.detail.push_back("\"replay_pass_ms\": " + summary_json(summarize(pass_ms)));
  std::size_t sweeps = 0;
  for (std::size_t fi = 0; fi < s_.formats.size(); ++fi) {
    const ReplayFormat& f = s_.formats[fi];
    res_.l("hw.replay_ms." + f.tag, median(fmt_ms_[fi]), "ms");
    res_.l("hw.toggles." + f.tag, static_cast<double>(f.toggles), "count");
    res_.l("hw.fj_per_mac." + f.tag, f.energy_fj / static_cast<double>(f.pairs), "fJ");
    sweeps += f.sweeps;
  }
  res_.l("hw.sweeps", static_cast<double>(sweeps), "count");
  res_.l("hw.build_netlist_ms", s_.build_netlist_ms, "ms");
}

}  // namespace perfbench
