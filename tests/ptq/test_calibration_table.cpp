// CalibrationTable: path-keyed portable calibration artifacts (MCT1).
// Covers the save/load round-trip, the calibrate-once/deploy-many flow on a
// clone() replica, the fail-loud uncalibrated-layer path, and the up-front
// structural validation of restore_weights / unpack_weights.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/registry.h"
#include "nn/data.h"
#include "nn/models.h"
#include "ptq/ptq.h"
#include "ptq/serialize.h"

namespace mersit::ptq {
namespace {

using nn::Dataset;

/// A tiny trained MobileNetV3-mini (SE + residual + depthwise: the hardest
/// structural mix) shared by the tests.
struct Fixture {
  Fixture() : rng(13) {
    model = nn::make_mobilenet_v3_mini(3, 10, rng);
    train = nn::make_vision_dataset(256, 3, 12, 41);
    test = nn::make_vision_dataset(96, 3, 12, 42);
    nn::TrainOptions opt;
    opt.epochs = 2;
    opt.batch = 32;
    opt.lr = 2e-3f;
    (void)nn::train_classifier(*model, train, opt);
    nn::fold_all_batchnorms(*model);
  }
  std::mt19937 rng;
  nn::ModulePtr model;
  Dataset train, test;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(CalibrationTable, SaveLoadRoundTripIsExact) {
  auto& f = fixture();
  const CalibrationTable table = calibrate_model(*f.model, f.train);
  EXPECT_EQ(table.model_name, "mobilenet_v3");
  EXPECT_GT(table.absmax.size(), 10u);
  EXPECT_GT(table.input_absmax, 0.f);

  std::stringstream ss;
  table.save(ss);
  EXPECT_EQ(ss.str().size(), table.byte_size());
  const CalibrationTable back = CalibrationTable::load(ss);
  EXPECT_EQ(back, table);

  // Deterministic bytes: identical tables serialize identically.
  std::stringstream ss2;
  back.save(ss2);
  EXPECT_EQ(ss2.str(), ss.str());
}

// Acceptance: calibrate one instance, save the table, load it into a
// clone() replica, and reproduce the quantized accuracy exactly with zero
// uncalibrated layers.
TEST(CalibrationTable, CalibrateOnceDeployToCloneReproducesAccuracy) {
  auto& f = fixture();
  const auto fmt = core::make_format("MERSIT(8,2)");

  const CalibrationTable table = calibrate_model(*f.model, f.train);
  const float acc_original = evaluate_with_table(*f.model, table, f.test, *fmt);

  std::stringstream ss;
  table.save(ss);
  const CalibrationTable loaded = CalibrationTable::load(ss);

  const nn::ModulePtr replica = f.model->clone();
  const float acc_replica = evaluate_with_table(*replica, loaded, f.test, *fmt);
  EXPECT_EQ(acc_original, acc_replica);

  // uncalibrated_layers() stays zero on the replica: every quant point that
  // fires finds its path in the loaded table.
  FakeQuantizer fq(loaded, *fmt, formats::ScalePolicy::kMaxToUnity);
  const nn::Context ctx{false, &fq};
  (void)replica->run(nn::slice_batch(f.test.inputs, 0, 16), ctx);
  EXPECT_EQ(fq.uncalibrated_layers(), 0);
  EXPECT_TRUE(fq.uncalibrated_paths().empty());
}

// Regression (satellite): evaluating with a table calibrated on a different
// architecture must fail loudly, not silently skip quantization.
TEST(CalibrationTable, EvaluateWithForeignTableFailsLoudly) {
  auto& f = fixture();
  const auto fmt = core::make_format("MERSIT(8,2)");
  std::mt19937 rng(3);
  auto other = nn::make_vgg_mini(3, 10, rng);
  const CalibrationTable foreign = calibrate_model(*other, f.train);
  try {
    (void)evaluate_with_table(*f.model, foreign, f.test, *fmt);
    FAIL() << "foreign calibration table was silently accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("calibration table"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mobilenet_v3/"), std::string::npos)
        << "error should name the missing paths: " << msg;
  }
}

TEST(CalibrationTable, EmptyTableRejectedBeforeEvaluation) {
  auto& f = fixture();
  const auto fmt = core::make_format("INT8");
  const CalibrationTable empty;
  const ptq::WeightSnapshot before = snapshot_weights(*f.model);
  EXPECT_THROW((void)evaluate_with_table(*f.model, empty, f.test, *fmt),
               std::runtime_error);
  // The pre-check fires before weight quantization: weights untouched.
  const auto params = f.model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j)
      ASSERT_EQ(params[i]->value[j], before.values[i][j]);
}

// Satellite: restore_weights validates count+shape up front and never
// partially mutates.
TEST(WeightValidation, RestoreRejectsForeignSnapshotWithoutMutating) {
  auto& f = fixture();
  std::mt19937 rng(5);
  auto other = nn::make_vgg_mini(3, 10, rng);
  const WeightSnapshot foreign = snapshot_weights(*other);
  const WeightSnapshot before = snapshot_weights(*f.model);
  EXPECT_THROW(restore_weights(*f.model, foreign), std::invalid_argument);
  const auto params = f.model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j)
      ASSERT_EQ(params[i]->value[j], before.values[i][j]);
}

TEST(WeightValidation, RestoreRejectsShapeMismatchWithoutMutating) {
  auto& f = fixture();
  WeightSnapshot snap = snapshot_weights(*f.model);
  // Same parameter count, but one tensor reshaped: must throw with the
  // offending index and leave the model untouched.
  ASSERT_GT(snap.values.size(), 1u);
  const std::size_t last = snap.values.size() - 1;
  snap.values[last] = nn::Tensor({1, static_cast<int>(snap.values[last].numel())});
  const WeightSnapshot before = snapshot_weights(*f.model);
  try {
    restore_weights(*f.model, snap);
    FAIL() << "shape mismatch was silently accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("shape mismatch"), std::string::npos);
  }
  const auto params = f.model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j)
      ASSERT_EQ(params[i]->value[j], before.values[i][j]);
}

// Satellite: unpack_weights validates the whole artifact before writing.
TEST(WeightValidation, UnpackRejectsForeignArtifactWithoutMutating) {
  auto& f = fixture();
  const auto fmt = core::make_format("MERSIT(8,2)");
  std::mt19937 rng(7);
  auto other = nn::make_vgg_mini(3, 10, rng);
  const QuantizedModel artifact = pack_weights(*other, *fmt);
  const WeightSnapshot before = snapshot_weights(*f.model);
  try {
    unpack_weights(*f.model, artifact, *fmt);
    FAIL() << "foreign artifact was silently accepted";
  } catch (const std::invalid_argument& e) {
    // The error names the offending layer by path.
    EXPECT_NE(std::string(e.what()).find("mismatch"), std::string::npos);
  }
  const auto params = f.model->parameters();
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::int64_t j = 0; j < params[i]->value.numel(); ++j)
      ASSERT_EQ(params[i]->value[j], before.values[i][j]);
}

TEST(PackWeights, RecordsModulePaths) {
  auto& f = fixture();
  const auto fmt = core::make_format("MERSIT(8,2)");
  const QuantizedModel qm = pack_weights(*f.model, *fmt);
  ASSERT_FALSE(qm.tensors.empty());
  for (const QuantizedTensor& t : qm.tensors) {
    EXPECT_FALSE(t.path.empty());
    EXPECT_EQ(t.path.rfind("mobilenet_v3", 0), 0u) << t.path;
  }
  EXPECT_EQ(qm.tensors.front().path, "mobilenet_v3/stem_conv");
}

/// Records the path of every quant point whose hook fires.
class HookRecorder final : public nn::QuantSession {
 public:
  void on_activation(const nn::Module& layer, nn::Tensor& t) override {
    (void)t;
    fired.insert(layer.path());
  }
  std::set<std::string> fired;
};

std::set<std::string> hooked_paths(nn::Module& model) {
  std::set<std::string> out;
  for (nn::Module* m : nn::hooked_quant_points(model)) out.insert(m->path());
  return out;
}

// The static coverage walk (validate_table_coverage, the serving engine's
// swap gate) must require exactly the quant points whose hooks fire — no
// fewer, and no more: an SE block's or attention block's inner Linears run
// without a hook, so calibrate_model never records them, and demanding
// them rejected every calibrated SE-model artifact.
TEST(CoverageWalk, HookedQuantPointsAreExactlyTheHooksThatFire) {
  std::vector<nn::NamedModel> zoo = nn::make_vision_zoo(3, 10, /*seed=*/5);
  const Dataset images = nn::make_vision_dataset(8, 3, 12, 43);
  for (nn::NamedModel& nm : zoo) {
    SCOPED_TRACE(nm.name);
    HookRecorder rec;
    const nn::Context ctx{/*train=*/false, &rec};
    (void)nm.model->run(images.inputs, ctx);
    EXPECT_EQ(hooked_paths(*nm.model), rec.fired);
    const CalibrationTable table =
        calibrate_model(*nm.model, images, /*observe_input=*/true);
    EXPECT_NO_THROW(validate_table_coverage(*nm.model, table));
  }

  std::mt19937 rng(9);
  auto bert = nn::make_bert_mini(48, 24, 16, 2, 1, 32, 2, rng);
  const Dataset tokens =
      nn::make_glue_dataset(nn::GlueTask::kSst2, 8, 48, 12, 3);
  HookRecorder rec;
  const nn::Context ctx{/*train=*/false, &rec};
  (void)bert->run(tokens.inputs, ctx);
  EXPECT_EQ(hooked_paths(*bert), rec.fired);
  const CalibrationTable table =
      calibrate_model(*bert, tokens, /*observe_input=*/false);
  EXPECT_NO_THROW(validate_table_coverage(*bert, table));

  // Still strict: dropping any one hooked entry is caught.
  CalibrationTable missing = table;
  missing.absmax.erase(*rec.fired.begin());
  EXPECT_THROW(validate_table_coverage(*bert, missing), std::runtime_error);
}

}  // namespace
}  // namespace mersit::ptq
