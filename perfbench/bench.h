// Shared declarations of the repository benchmark (see main.cpp for the
// protocol).  Each phase owns a setup object, built from the workload seed
// during the timed set-up, and a run object that measures one repetition,
// pass or window at a time and appends its metrics to a Result at the end.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "formats/format.h"
#include "hw/power.h"
#include "nn/module.h"
#include "nn/qweights.h"
#include "ptq/ptq.h"
#include "serve/engine.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using namespace mersit;

/// Input resolution and offline batch: the repo's standard synthetic task.
inline constexpr int kImg = 12;
inline constexpr int kBatch = 32;

/// One model family: what every phase of a workload runs.
struct Family {
  std::string name;
  std::vector<std::string> offline_models;
  std::string serve_model;
  std::string replay_model;
  std::vector<double> ladder;  ///< fixed open-loop rates, req/s, ascending
  int light = 0;               ///< ladder index of the light rate
  int heavy = 0;               ///< ladder index of the heavy rate
  double limit_ms = 0.0;       ///< p99 latency limit for slo_qps
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<Metric> e2e, layer;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<std::string> detail;    ///< "key": value JSON members

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
  void e(const std::string& n, double v, const char* unit) { e2e.push_back({n, v, unit}); }
  void l(const std::string& n, double v, const char* unit) { layer.push_back({n, v, unit}); }
};

/// The trained models of one workload, generated from its seed before the
/// timed set-up: weights drawn from the seed, then a short training run on
/// the synthetic task so logits carry real margins (top-1 checks on
/// near-uniform logits of an untrained net would compare noise).
struct Models {
  std::map<std::string, nn::ModulePtr> trained;
  /// A fresh copy of the trained `name`.
  [[nodiscard]] nn::ModulePtr get(const std::string& name) const {
    return trained.at(name)->clone();
  }
};
Models train_models(const Family& fam, std::uint32_t seed);

/// Derived seed for one purpose of the workload seed.
inline std::uint32_t derive(std::uint32_t seed, std::uint32_t salt) {
  std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32 | salt) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return static_cast<std::uint32_t>(z ^ (z >> 31));
}

/// Bitwise equality of two tensors (shape and every float's bits).
bool same_bits(const nn::Tensor& a, const nn::Tensor& b);

/// A JSON number; non-finite values (a rung whose tail is a miss) as null.
std::string json_num(double v);

/// {"median": .., "p<tail>": .., "n": ..} of a timing summary.
std::string summary_json(const Summary& s);

/// "MERSIT(8,2)" -> "MERSIT82": the format as a metric-name segment.
std::string metric_tag(const std::string& format_name);

/// Set-up timings of the PTQ layer, summed over every model of the setup.
struct PtqTimes {
  double calibrate_s = 0.0;
  double install_codes_ms = 0.0;
  double artifact_load_ms = 0.0;
};

// ----------------------------------------------------------- offline ----

/// A non-depthwise conv of the zoo as the GEMM layer sees it, with the
/// input it receives in the model (for the nn/gemm micro-measurements).
struct ConvShape {
  int m = 0, k = 0, n = 0;                 ///< GEMM extents (N = batch*oh*ow)
  int c = 0, h = 0, w = 0, ks = 0, stride = 1, pad = 0, batch = 0;
  std::vector<float> weight, bias;         ///< FP32 [M x K], [M]
  std::shared_ptr<const nn::WeightCodes> code_w, int8_w;  ///< MERSIT / INT8
  nn::Tensor input;                        ///< [batch, c, h, w]
};

/// One model in its three offline modes.  Each mode has its own instance
/// so every instance keeps a warm prepack cache for its one mode.
struct OfflineModel {
  std::string name;
  nn::ModulePtr fp32, code, int8;
  ptq::CalibrationTable table;  ///< outlives the quantizers that read it
  std::unique_ptr<ptq::FakeQuantizer> fq_code, fq_int8;
  nn::Tensor x, xq_code, xq_int8;          ///< inputs per mode
  nn::Tensor ref_fp32, ref_code, ref_int8; ///< expected outputs
};

struct OfflineSetup {
  std::shared_ptr<const formats::Format> fmt_code, fmt_int8;  ///< quantizers keep references
  std::vector<std::unique_ptr<OfflineModel>> models;  ///< stable addresses: the
                                                     ///< quantizers hold their table
  int pool_width = 0;
};

std::unique_ptr<OfflineSetup> setup_offline(const Family& fam, const Models& models,
                                            std::uint32_t seed, PtqTimes& ptq_times, Result& res);

/// Measures the offline phase one repetition at a time, so repetitions can
/// interleave with the other phases, and reports its metrics at the end.
class OfflineRun {
 public:
  OfflineRun(OfflineSetup& s, Tracer& tracer, Result& res);
  ~OfflineRun();
  OfflineRun(const OfflineRun&) = delete;
  OfflineRun& operator=(const OfflineRun&) = delete;

  /// One repetition: every model in every mode, the mode order rotating.
  void rep();
  /// Report the metrics; a traced run first times the nn/gemm kernels at
  /// the family's conv shapes for `gemm_seconds`.
  void finish(double gemm_seconds);

 private:
  struct State;
  OfflineSetup& s_;
  Tracer& tracer_;
  Result& res_;
  std::unique_ptr<State> st_;
};

// ----------------------------------------------------------- serving ----

struct ServeSetup {
  nn::ModulePtr model;  ///< BN-folded prototype the engine clones
  std::shared_ptr<const formats::Format> fmt[2];
  std::string mct1, mqt1[2];  ///< artifacts of generations A and B
  std::vector<nn::Tensor> inputs;           ///< request pool, one sample each
  std::vector<nn::Tensor> expected[2];      ///< logits per input per generation
  std::unique_ptr<serve::Engine> engine;    ///< serving generation A
};

std::unique_ptr<ServeSetup> setup_serving(const Family& fam, const Models& models,
                                          std::uint32_t seed, PtqTimes& ptq_times, Result& res);

/// Measures serving one open-loop window at a time, so windows can
/// interleave with the other phases, and reports its metrics at the end.
class ServeRun {
 public:
  ServeRun(ServeSetup& s, const Family& fam, std::uint32_t seed, Tracer& tracer, Result& res);
  /// The rung of each window of a run of `seconds`, in order.
  [[nodiscard]] std::vector<std::size_t> plan(double seconds) const;
  /// One window at ladder rung `ri`, with hot swaps beside it.
  void window(std::size_t ri);
  void finish();

 private:
  /// Nominal length of one window at rung `ri`.
  [[nodiscard]] double window_seconds(std::size_t ri) const;

  ServeSetup& s_;
  const Family& fam_;
  Tracer& tracer_;
  Result& res_;
  std::mt19937_64 rng_;
  serve::Engine::Stats before_;
  std::vector<Rung> rungs_;  ///< pooled over each rung's windows
  std::vector<std::size_t> ok_, shed_, failed_;
  std::vector<double> light_p50_, light_p99_, heavy_p50_, heavy_p99_;  ///< per window
  std::vector<double> late_ms_, heavy_queue_ms_, heavy_service_ms_, swap_ms_;
  std::uint64_t next_id_ = std::uint64_t{1} << 40;
};

// ------------------------------------------------------------ replay ----

struct ReplayFormat {
  std::shared_ptr<const formats::Format> fmt;
  std::string tag;                        ///< metric-name segment
  std::unique_ptr<hw::MacReplay> replay;
  std::vector<hw::CodeStream> streams;    ///< one per consuming layer
  std::uint64_t toggles = 0;              ///< first pass, the exact reference
  double energy_fj = 0.0;
  std::size_t pairs = 0, sweeps = 0;
};

struct ReplaySetup {
  std::vector<ReplayFormat> formats;
  double build_netlist_ms = 0.0;
};

std::unique_ptr<ReplaySetup> setup_replay(const Family& fam, const Models& models,
                                          std::uint32_t seed, PtqTimes& ptq_times, Result& res);

/// Measures gate-level replay one pass (every format over the whole trace)
/// at a time and reports its metrics at the end.
class ReplayRun {
 public:
  ReplayRun(ReplaySetup& s, Tracer& tracer, Result& res) : s_(s), tracer_(tracer), res_(res) {}
  void pass();
  void finish();

 private:
  ReplaySetup& s_;
  Tracer& tracer_;
  Result& res_;
  std::vector<double> mpairs_;
  std::vector<std::vector<double>> fmt_ms_;
};

}  // namespace perfbench
