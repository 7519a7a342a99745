#include <gtest/gtest.h>

#include "src/calib/calibration.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

// Runs a random single-sector read workload through a predictor and returns
// its accuracy statistics.
template <typename MakePredictorFn>
PredictorStats RunPredictedWorkload(SimDisk& disk, Simulator& sim,
                                    MakePredictorFn make_predictor, int ops,
                                    uint64_t seed) {
  auto predictor = make_predictor();
  Rng rng(seed);
  PredictorStats stats;
  for (int i = 0; i < ops; ++i) {
    const uint64_t lba = rng.UniformU64(disk.num_sectors());
    const AccessPlan plan =
        predictor->Predict(sim.Now(), BlockAddr(lba), 1, false);
    predictor->OnDispatch(sim.Now(), BlockAddr(lba), 1, false, plan.total_us);
    bool done = false;
    SimTime completion;
    disk.Start(DiskOp::kRead, BlockAddr(lba), 1, [&](const DiskOpResult& r) {
      completion = r.completion_us;
      done = true;
    });
    while (!done) {
      sim.Step();
    }
    predictor->OnCompletion(completion, BlockAddr(lba), 1);
  }
  return predictor->stats();
}

TEST(OraclePredictor, NoiseFreePredictionsAreExact) {
  Simulator sim;
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::None(), /*seed=*/1, /*spindle_phase_us=*/0.0);
  const PredictorStats stats = RunPredictedWorkload(
      disk, sim,
      [&] { return std::make_unique<OraclePredictor>(&disk, 0.0); }, 300, 9);
  EXPECT_EQ(stats.misses, 0u);
  // Errors bounded by timestamp integer rounding.
  EXPECT_LT(std::abs(stats.error_us.mean()), 1.0);
  EXPECT_LT(stats.error_us.max(), 1.5);
  EXPECT_LT(stats.DemeritUs(), 1.5);
}

TEST(OraclePredictor, NoisyDiskHasBoundedErrors) {
  Simulator sim;
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::Prototype(), /*seed=*/2,
               /*spindle_phase_us=*/500.0);
  const PredictorStats stats = RunPredictedWorkload(
      disk, sim,
      [&] { return std::make_unique<OraclePredictor>(&disk, 0.0); }, 500, 10);
  // Without slack the oracle mispredicts only when jitter wraps a tight
  // rotational wait; those are the (rare) misses.
  EXPECT_LT(stats.MissRate(), 0.15);
  EXPECT_LT(std::abs(stats.error_us.mean()), 80.0);
}

// The oracle's pick bound folds in the same mean overheads as its
// predictions: the pre-access overhead delays the start, and both overheads
// add to the total. The bound must stay below every prediction. For a
// one-sector read on the head's own track (no seek, no head switch) it must
// also come within the transfer-floor gap of the prediction, which a bound
// without the overheads would miss by their whole sum.
TEST(OraclePredictor, PickBoundFoldsInOverheadsAndStaysBelowPredictions) {
  Simulator sim;
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::None(), /*seed=*/1, /*spindle_phase_us=*/500.0);
  OraclePredictor predictor(&disk, 0.0);
  const DiskLayout& layout = disk.layout();
  const double overheads =
      disk.noise().overhead_mean_us + disk.noise().post_overhead_mean_us;
  ASSERT_GT(overheads, 0.0);
  Rng rng(23);
  int near_checks = 0;
  for (int i = 0; i < 200; ++i) {
    const SimTime now =
        sim.Now() + SimDuration(static_cast<int64_t>(rng.UniformU64(7000)));
    const AccessBound bound = predictor.PickBound(now);
    for (int c = 0; c < 20; ++c) {
      const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(32));
      const uint64_t lba = rng.UniformU64(layout.num_data_sectors() - sectors);
      const bool is_write = rng.Bernoulli(0.5);
      ASSERT_LE(bound.Us(layout.PositionOf(lba), sectors, is_write),
                predictor.Predict(now, BlockAddr(lba), sectors, is_write)
                    .total_us)
          << "lba=" << lba << " sectors=" << sectors;
    }
    const HeadState head = predictor.Head();
    const uint64_t near =
        layout.LbaForAngle(head.cylinder, head.head, rng.UniformDouble(0, 1));
    if (near != kInvalidLba) {
      const double gap =
          predictor.Predict(now, BlockAddr(near), 1, false).total_us -
          bound.Us(layout.PositionOf(near), 1, false);
      EXPECT_GE(gap, 0.0);
      EXPECT_LT(gap, overheads);
      ++near_checks;
    }
    // Move the head with one random read.
    bool done = false;
    disk.Start(DiskOp::kRead,
               BlockAddr(rng.UniformU64(layout.num_data_sectors() - 8)), 8,
               [&done](const DiskOpResult&) { done = true; });
    while (!done) {
      sim.Step();
    }
  }
  EXPECT_GT(near_checks, 100);
}

class CalibratedPredictorTest : public ::testing::Test {
 protected:
  CalibratedPredictorTest()
      : disk_(&sim_, MakeTestGeometry(), MakeTestSeekProfile(),
              DiskNoiseModel::Prototype(), /*seed=*/3,
              /*spindle_phase_us=*/1111.0, 6000.0 * (1 - 18e-6)) {}

  Simulator sim_;
  SimDisk disk_;
};

TEST_F(CalibratedPredictorTest, TableTwoStyleAccuracy) {
  // Build the full software predictor: rotation/phase estimation + extracted
  // seek profile, then measure prediction accuracy on a random read workload
  // (this is the Table 2 experiment in miniature).
  CalibrationOptions options;
  options.seek.num_distances = 10;
  options.seek.searches_per_distance = 3;
  auto predictor = MakeCalibratedPredictor(&sim_, &disk_, options);
  ASSERT_NE(predictor, nullptr);

  Rng rng(17);
  for (int i = 0; i < 800; ++i) {
    // Mirror the scheduler's behavior: skip targets whose rotational wait is
    // inside the slack (RSATF would take another replica).
    uint64_t lba = rng.UniformU64(disk_.num_sectors());
    AccessPlan plan = predictor->Predict(sim_.Now(), BlockAddr(lba), 1, false);
    for (int retry = 0;
         retry < 8 && plan.rotational_us < predictor->SlackUs(); ++retry) {
      lba = rng.UniformU64(disk_.num_sectors());
      plan = predictor->Predict(sim_.Now(), BlockAddr(lba), 1, false);
    }
    predictor->OnDispatch(sim_.Now(), BlockAddr(lba), 1, false, plan.total_us);
    bool done = false;
    SimTime completion;
    disk_.Start(DiskOp::kRead, BlockAddr(lba), 1, [&](const DiskOpResult& r) {
      completion = r.completion_us;
      done = true;
    });
    while (!done) {
      sim_.Step();
    }
    predictor->OnCompletion(completion, BlockAddr(lba), 1);
  }
  const PredictorStats& stats = predictor->stats();
  // Paper (Table 2): 0.22% misses. Give headroom but require high accuracy.
  EXPECT_LT(stats.MissRate(), 0.05);
  EXPECT_EQ(stats.predictions, 800u);
}

TEST_F(CalibratedPredictorTest, SlackFeedbackRaisesSlackUnderMisses) {
  SlackFeedbackOptions slack;
  slack.initial_slack_us = 100.0;
  slack.window = 50;
  HeadPositionPredictor predictor(&disk_.layout(), MakeTestSeekProfile(),
                                  6000.0, 0.0, 0, slack);
  const double initial = predictor.SlackUs();
  // Feed it a stream of misses: predicted far below actual.
  for (int i = 0; i < 200; ++i) {
    predictor.OnDispatch(SimTime(0), BlockAddr(0), 1, false, 100.0);
    predictor.OnCompletion(SimTime(100 + 5900), BlockAddr(0),
                           1);  // error ~ +5.9 ms = miss
  }
  EXPECT_GT(predictor.SlackUs(), initial);
}

TEST_F(CalibratedPredictorTest, SlackFeedbackDecaysWhenAccurate) {
  SlackFeedbackOptions slack;
  slack.initial_slack_us = 800.0;
  slack.window = 50;
  HeadPositionPredictor predictor(&disk_.layout(), MakeTestSeekProfile(),
                                  6000.0, 0.0, 0, slack);
  for (int i = 0; i < 500; ++i) {
    predictor.OnDispatch(SimTime(0), BlockAddr(0), 1, false, 100.0);
    predictor.OnCompletion(SimTime(100), BlockAddr(0), 1);  // exact
  }
  EXPECT_LT(predictor.SlackUs(), 800.0);
  EXPECT_GE(predictor.SlackUs(), slack.min_slack_us);
}

TEST_F(CalibratedPredictorTest, HeadTrackingFollowsCompletions) {
  HeadPositionPredictor predictor(&disk_.layout(), MakeTestSeekProfile(),
                                  6000.0, 0.0, 0);
  const uint64_t lba = 3000;
  predictor.OnDispatch(SimTime(0), BlockAddr(lba), 4, false, 0.0);
  predictor.OnCompletion(SimTime(10000), BlockAddr(lba), 4);
  const Chs last = disk_.layout().ToChs(lba + 3);
  EXPECT_EQ(predictor.Head().cylinder, last.cylinder);
  EXPECT_EQ(predictor.Head().head, last.head);
}

TEST_F(CalibratedPredictorTest, EffectiveServiceAddsRotationBelowSlack) {
  SlackFeedbackOptions slack;
  slack.initial_slack_us = 400.0;
  HeadPositionPredictor predictor(&disk_.layout(), MakeTestSeekProfile(),
                                  6000.0, 0.0, 0, slack);
  AccessPlan risky;
  risky.rotational_us = 100.0;
  risky.total_us = 700.0;
  AccessPlan safe;
  safe.rotational_us = 900.0;
  safe.total_us = 1500.0;
  EXPECT_NEAR(predictor.EffectiveServiceUs(risky), 700.0 + 6000.0, 1e-9);
  EXPECT_NEAR(predictor.EffectiveServiceUs(safe), 1500.0, 1e-9);
}

TEST_F(CalibratedPredictorTest, ReferenceObservationsRefreshModel) {
  HeadPositionPredictor predictor(&disk_.layout(), MakeTestSeekProfile(),
                                  6000.0, 0.0, 0);
  // Feed a lattice with a slightly different rotation.
  for (int i = 0; i < 10; ++i) {
    predictor.AddReferenceObservation(static_cast<SimTime>(i * 5 * 6002.0));
  }
  EXPECT_NEAR(predictor.RotationUs(), 6002.0, 0.5);
}

}  // namespace
}  // namespace mimdraid
