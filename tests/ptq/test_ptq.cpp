#include "ptq/ptq.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "core/registry.h"
#include "formats/quantize.h"
#include "nn/data.h"
#include "nn/layers.h"

namespace mersit::ptq {
namespace {

using nn::Dataset;
using nn::Tensor;

/// A tiny trained-ish model fixture shared by the tests.
struct Fixture {
  Fixture() : rng(5) {
    model = nn::make_vgg_mini(3, 10, rng);
    train = nn::make_vision_dataset(320, 3, 12, 31);
    test = nn::make_vision_dataset(96, 3, 12, 32);
    nn::TrainOptions opt;
    opt.epochs = 3;
    opt.batch = 32;
    opt.lr = 2e-3f;
    (void)nn::train_classifier(*model, train, opt);
  }
  std::mt19937 rng;
  nn::ModulePtr model;
  Dataset train, test;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Calibrator, RecordsPerLayerMaxima) {
  auto& f = fixture();
  MaxCalibrator cal;
  const nn::Context ctx{false, &cal};
  const Tensor xb = nn::slice_batch(f.train.inputs, 0, 16);
  cal.observe_input(xb);
  (void)f.model->run(xb, ctx);
  EXPECT_GT(cal.table.absmax.size(), 5u);
  EXPECT_GT(cal.table.input_absmax, 0.f);
  for (const auto& [path, mx] : cal.table.absmax) {
    EXPECT_FALSE(path.empty());
    EXPECT_GE(mx, 0.f) << path;
    // Paths are rooted at the factory's root name.
    EXPECT_EQ(path.rfind("vgg", 0), 0u) << path;
  }
}

TEST(Weights, SnapshotRestoreRoundTrip) {
  auto& f = fixture();
  const WeightSnapshot snap = snapshot_weights(*f.model);
  const auto fmt = core::make_format("FP(8,3)");
  quantize_weights_per_channel(*f.model, *fmt, formats::ScalePolicy::kMaxToUnity);
  // Weights changed...
  const auto params = f.model->parameters();
  bool changed = false;
  for (std::size_t i = 0; i < params.size() && !changed; ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel() && !changed; ++j)
      changed = params[i]->value[j] != snap.values[i][j];
  EXPECT_TRUE(changed);
  // ...and restore exactly.
  restore_weights(*f.model, snap);
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j)
      ASSERT_EQ(params[i]->value[j], snap.values[i][j]);
}

TEST(Weights, PerChannelQuantizationPreservesChannelMax) {
  auto& f = fixture();
  const WeightSnapshot snap = snapshot_weights(*f.model);
  const auto fmt = core::make_format("MERSIT(8,2)");
  // With max->unity scaling the channel max maps to 1.0, which every
  // exponent format represents exactly -> channel maxima survive.
  std::vector<float> maxima_before;
  for (nn::Module* m : f.model->modules()) {
    if (auto* cw = dynamic_cast<nn::ChannelWeights*>(m)) {
      for (int c = 0; c < cw->weight_channels(); ++c) {
        float mx = 0.f;
        for (const float v : cw->channel_span(c)) mx = std::max(mx, std::fabs(v));
        maxima_before.push_back(mx);
      }
    }
  }
  quantize_weights_per_channel(*f.model, *fmt, formats::ScalePolicy::kMaxToUnity);
  std::size_t i = 0;
  for (nn::Module* m : f.model->modules()) {
    if (auto* cw = dynamic_cast<nn::ChannelWeights*>(m)) {
      for (int c = 0; c < cw->weight_channels(); ++c) {
        float mx = 0.f;
        for (const float v : cw->channel_span(c)) mx = std::max(mx, std::fabs(v));
        EXPECT_NEAR(mx, maxima_before[i++], 1e-6f);
      }
    }
  }
  restore_weights(*f.model, snap);
}

TEST(Ptq, WideFormatsPreserveAccuracy) {
  auto& f = fixture();
  const float fp32 = evaluate_fp32(*f.model, f.test, Metric::kAccuracy);
  ASSERT_GT(fp32, 70.f);  // the fixture must have learned something real
  for (const char* name : {"Posit(8,1)", "MERSIT(8,2)", "FP(8,4)"}) {
    const auto fmt = core::make_format(name);
    const float q = evaluate_ptq(*f.model, f.train, f.test, *fmt);
    EXPECT_GT(q, fp32 - 6.f) << name;
  }
}

TEST(Ptq, WeightsAreRestoredAfterEvaluation) {
  auto& f = fixture();
  const WeightSnapshot before = snapshot_weights(*f.model);
  const auto fmt = core::make_format("INT8");
  (void)evaluate_ptq(*f.model, f.train, f.test, *fmt);
  const auto params = f.model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j)
      ASSERT_EQ(params[i]->value[j], before.values[i][j]);
}

TEST(Ptq, QuantizerLeavesUncalibratedZero) {
  auto& f = fixture();
  MaxCalibrator cal;
  const nn::Context cctx{false, &cal};
  (void)f.model->run(nn::slice_batch(f.train.inputs, 0, 32), cctx);
  const auto fmt = core::make_format("FP(8,4)");
  FakeQuantizer fq(cal.table, *fmt, formats::ScalePolicy::kMaxToUnity);
  const nn::Context qctx{false, &fq};
  (void)f.model->run(nn::slice_batch(f.test.inputs, 0, 16), qctx);
  EXPECT_EQ(fq.uncalibrated_layers(), 0);
}

// FakeQuantizer's quant stages (one per calibrated path, one for the input)
// must be bit-identical to the per-element codec reference for every
// registered format — exact values, exact rounding ties, quarter points,
// non-finite values, signed zeros, denormals and saturating magnitudes — at
// scale 1 (where every midpoint is an exact tie) and at non-power-of-two
// scales, through both quantize_input and on_activation.
TEST(FakeQuantizerStages, BitIdenticalToScalarReferenceEveryFormat) {
  using lim = std::numeric_limits<float>;
  for (const std::string& name : core::all_format_names()) {
    SCOPED_TRACE(name);
    const auto fmt = core::make_format(name);
    const double target = fmt->calibration_target();
    // absmax = target·s gives scale s under kMaxToUnity (s = 1 exactly).
    for (const double s : {1.0, 0.37, 3.3, 1.7e-3, 1234.5}) {
      SCOPED_TRACE(s);
      CalibrationTable table;
      table.input_absmax = static_cast<float>(target * s);
      table.absmax["act"] = table.input_absmax;
      table.absmax["zero"] = 0.f;
      FakeQuantizer fq(table, *fmt, formats::ScalePolicy::kMaxToUnity);
      const double scale = formats::scale_for_absmax(
          *fmt, table.input_absmax, formats::ScalePolicy::kMaxToUnity);

      std::vector<float> vals;
      const auto& pos = fmt->codec().positives();
      for (std::size_t i = 0; i < pos.size(); ++i) {
        const double lo = i == 0 ? 0.0 : pos[i - 1].value;
        for (const double f : {1.0, 0.5, 0.25, 0.75}) {
          const auto v = static_cast<float>((lo + f * (pos[i].value - lo)) *
                                            scale);
          vals.insert(vals.end(), {v, -v, std::nextafter(v, 0.f),
                                   std::nextafter(v, lim::infinity())});
        }
      }
      vals.insert(vals.end(),
                  {0.f, -0.f, lim::quiet_NaN(), -lim::quiet_NaN(),
                   lim::infinity(), -lim::infinity(), lim::denorm_min(),
                   -lim::denorm_min(), -1e-42f, lim::min(), 1e30f, -1e30f,
                   lim::max(), -lim::max()});
      std::mt19937 rng(5);
      std::normal_distribution<float> normal(0.f, 1.f);
      for (int i = 0; i < 4096; ++i)
        vals.push_back(normal(rng) * static_cast<float>(2.0 * target * s));

      std::vector<float> want = vals;
      formats::fake_quantize_scalar(want, *fmt, scale);
      const auto n = static_cast<int>(vals.size());
      Tensor in({1, n}), act({1, n}), zero({1, n});
      for (int i = 0; i < n; ++i) in[i] = act[i] = zero[i] = vals[i];
      fq.quantize_input(in);
      nn::Activation point(nn::Act::kReLU), dead(nn::Act::kReLU);
      point.set_path("act");
      dead.set_path("zero");
      fq.on_activation(point, act);
      fq.on_activation(dead, zero);
      EXPECT_EQ(in.quant_scale(), scale);
      EXPECT_EQ(act.quant_scale(), scale);
      EXPECT_EQ(zero.quant_scale(), 0.0);
      for (int i = 0; i < n; ++i) {
        const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
        EXPECT_EQ(bits(in[i]), bits(want[i])) << "input elem " << i << " in "
                                              << vals[i];
        EXPECT_EQ(bits(act[i]), bits(want[i])) << "act elem " << i << " in "
                                               << vals[i];
        // An all-zero calibrated |max| passes the tensor through untouched.
        EXPECT_EQ(bits(zero[i]), bits(vals[i]));
      }
      EXPECT_EQ(fq.uncalibrated_layers(), 0);
    }
  }
}

TEST(Rmse, MersitComparableToPositAndBelowFp) {
  auto& f = fixture();
  const auto fp = core::make_format("FP(8,4)");
  const auto ps = core::make_format("Posit(8,1)");
  const auto me = core::make_format("MERSIT(8,2)");
  const RmseReport r_fp = measure_ptq_rmse(*f.model, f.train, *fp);
  const RmseReport r_ps = measure_ptq_rmse(*f.model, f.train, *ps);
  const RmseReport r_me = measure_ptq_rmse(*f.model, f.train, *me);
  EXPECT_GT(r_fp.weight_rmse, 0.0);
  // Fig. 6 ordering on weights: MERSIT <= Posit (within 10%), both < FP.
  EXPECT_LT(r_me.weight_rmse, r_fp.weight_rmse);
  EXPECT_LT(r_ps.weight_rmse, r_fp.weight_rmse);
  EXPECT_LT(r_me.weight_rmse, r_ps.weight_rmse * 1.10);
  EXPECT_LT(r_me.activation_rmse, r_fp.activation_rmse * 1.10);
}

TEST(Ptq, BertPathWithTokenInputs) {
  std::mt19937 rng(9);
  auto bert = nn::make_bert_mini(48, 24, 16, 2, 1, 32, 2, rng);
  const Dataset train = nn::make_glue_dataset(nn::GlueTask::kSst2, 192, 48, 12, 3);
  const Dataset test = nn::make_glue_dataset(nn::GlueTask::kSst2, 64, 48, 12, 4);
  nn::TrainOptions opt;
  opt.epochs = 3;
  opt.batch = 32;
  opt.lr = 2e-3f;
  (void)nn::train_classifier(*bert, train, opt);
  PtqOptions popt;
  popt.quantize_input = false;  // token ids
  const auto fmt = core::make_format("MERSIT(8,2)");
  const float fp32 = evaluate_fp32(*bert, test, Metric::kAccuracy);
  const float q = evaluate_ptq(*bert, train, test, *fmt, popt);
  EXPECT_GT(q, fp32 - 12.f);
}

}  // namespace
}  // namespace mersit::ptq
