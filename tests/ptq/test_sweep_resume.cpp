// SweepRunner cell checkpointing: keyed rows persist their result as one
// JSON file each and a rerun loads valid cells instead of recomputing,
// while corrupt or foreign cell files are recomputed and overwritten.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "ptq/sweep.h"

namespace mersit::ptq {
namespace {

namespace fs = std::filesystem;

class SweepResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mersit_sweep_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static SweepRowResult make_row(const std::string& name, float base) {
    SweepRowResult r;
    r.name = name;
    r.fp32 = base;
    r.metrics = {base + 0.5f, base - 0.25f, 1.0f / 3.0f};
    return r;
  }

  /// Queue two keyed rows that bump `computed` when actually run.
  static void queue(SweepRunner& runner, std::atomic<int>& computed) {
    runner.add_row("cell a", [&computed] {
      computed.fetch_add(1);
      return make_row("row-a", 91.25f);
    });
    runner.add_row("cell b", [&computed] {
      computed.fetch_add(1);
      return make_row("row-b", 78.5f);
    });
  }

  static void expect_rows(const std::vector<SweepRowResult>& rows) {
    ASSERT_EQ(rows.size(), 2u);
    const SweepRowResult a = make_row("row-a", 91.25f);
    const SweepRowResult b = make_row("row-b", 78.5f);
    EXPECT_EQ(rows[0].name, a.name);
    EXPECT_EQ(rows[0].fp32, a.fp32);
    EXPECT_EQ(rows[0].metrics, a.metrics);  // %.9g round-trips float exactly
    EXPECT_EQ(rows[1].name, b.name);
    EXPECT_EQ(rows[1].fp32, b.fp32);
    EXPECT_EQ(rows[1].metrics, b.metrics);
  }

  fs::path dir_;
};

TEST_F(SweepResumeTest, SecondRunResumesEveryCellWithoutRecomputing) {
  std::atomic<int> computed{0};

  SweepRunner first;
  first.set_checkpoint_dir(dir_.string());
  queue(first, computed);
  expect_rows(first.run());
  EXPECT_EQ(computed.load(), 2);
  EXPECT_EQ(first.resumed_rows(), 0);
  EXPECT_TRUE(fs::exists(dir_ / "cell_a.json"));  // key sanitized: ' ' -> '_'
  EXPECT_TRUE(fs::exists(dir_ / "cell_b.json"));

  SweepRunner second;  // a fresh process would build a fresh runner
  second.set_checkpoint_dir(dir_.string());
  queue(second, computed);
  expect_rows(second.run());
  EXPECT_EQ(computed.load(), 2) << "resume must not recompute finished cells";
  EXPECT_EQ(second.resumed_rows(), 2);
}

TEST_F(SweepResumeTest, CorruptCellRecomputesAndHealsCheckpoint) {
  std::atomic<int> computed{0};
  {
    SweepRunner first;
    first.set_checkpoint_dir(dir_.string());
    queue(first, computed);
    (void)first.run();
  }
  // Corrupt one cell three ways across reruns: truncation, garbage, and a
  // valid-looking file holding the wrong key.
  for (const std::string& bad :
       {std::string("{\"key\":\"cell a\",\"name\":\"row-a\",\"fp32\":9"),
        std::string("!!not json!!"),
        std::string("{\"key\":\"other\",\"name\":\"x\",\"fp32\":1,\"metrics\":[]}\n")}) {
    std::ofstream(dir_ / "cell_a.json", std::ios::trunc) << bad;
    computed.store(0);
    SweepRunner rerun;
    rerun.set_checkpoint_dir(dir_.string());
    queue(rerun, computed);
    expect_rows(rerun.run());
    EXPECT_EQ(computed.load(), 1) << "only the corrupt cell recomputes";
    EXPECT_EQ(rerun.resumed_rows(), 1);
  }
  // The corrupt cell was rewritten: a final rerun resumes everything.
  computed.store(0);
  SweepRunner last;
  last.set_checkpoint_dir(dir_.string());
  queue(last, computed);
  expect_rows(last.run());
  EXPECT_EQ(computed.load(), 0);
}

TEST_F(SweepResumeTest, UnkeyedOrUncheckpointedRowsAlwaysRun) {
  std::atomic<int> computed{0};
  {  // no checkpoint dir: keys are inert
    SweepRunner r;
    queue(r, computed);
    (void)r.run();
    EXPECT_EQ(computed.load(), 2);
    EXPECT_FALSE(fs::exists(dir_));
  }
  {  // checkpoint dir but legacy unkeyed add_row: never checkpointed
    computed.store(0);
    SweepRunner r;
    r.set_checkpoint_dir(dir_.string());
    r.add_row([&computed] {
      computed.fetch_add(1);
      return SweepRowResult{"plain", 1.f, {2.f}};
    });
    (void)r.run();
    (void)r.run();  // queue cleared; second run is a no-op
    EXPECT_EQ(computed.load(), 1);
    EXPECT_TRUE(fs::is_empty(dir_));
  }
}

TEST_F(SweepResumeTest, AtomicWriteLeavesNoTempFiles) {
  std::atomic<int> computed{0};
  SweepRunner r;
  r.set_checkpoint_dir(dir_.string());
  queue(r, computed);
  (void)r.run();
  for (const auto& e : fs::directory_iterator(dir_))
    EXPECT_EQ(e.path().extension(), ".json") << e.path();
}

}  // namespace
}  // namespace mersit::ptq
