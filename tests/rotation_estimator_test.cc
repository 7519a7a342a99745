#include <gtest/gtest.h>

#include <cmath>

#include "src/calib/calibration.h"
#include "src/calib/rotation_estimator.h"
#include "src/calib/sync_disk.h"
#include "src/disk/sim_disk.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

TEST(RotationEstimator, ExactLatticeRecoverd) {
  RotationEstimator est(6000.0);
  // Perfect lattice with R = 6003.5, phase = 1234.
  for (int i = 0; i < 20; ++i) {
    est.AddObservation(static_cast<SimTime>(1234.0 + i * 7 * 6003.5));
  }
  ASSERT_TRUE(est.Ready());
  EXPECT_NEAR(est.rotation_us(), 6003.5, 0.01);
  // Phase recovered modulo R.
  const double phase_err =
      std::fmod(est.phase_us() - 1234.0, est.rotation_us());
  EXPECT_LT(std::min(std::abs(phase_err),
                     est.rotation_us() - std::abs(phase_err)),
            1.0);
  EXPECT_LT(est.ResidualRmsUs(), 1.0);
}

TEST(RotationEstimator, NoisyLatticeConverges) {
  RotationEstimator est(6000.0);
  Rng rng(5);
  const double true_r = 5999.2;
  double t = 500.0;
  for (int i = 0; i < 40; ++i) {
    const int k = 3 + static_cast<int>(rng.UniformU64(5));
    t += k * true_r;
    est.AddObservation(SimTime(static_cast<int64_t>(t + rng.Normal(0.0, 15.0))));
  }
  EXPECT_NEAR(est.rotation_us(), true_r, 0.5);
  EXPECT_LT(est.ResidualRmsUs(), 60.0);
}

TEST(RotationEstimator, RejectsAbsurdFit) {
  RotationEstimator est(6000.0);
  est.AddObservation(SimTime(0));
  est.AddObservation(SimTime(6000));
  est.AddObservation(SimTime(12000));
  EXPECT_NEAR(est.rotation_us(), 6000.0, 1.0);
}

TEST(RotationEstimator, TrimKeepsRecentWindow) {
  RotationEstimator est(6000.0);
  for (int i = 0; i < 100; ++i) {
    est.AddObservation(SimTime(static_cast<int64_t>(i * 6001.0)));
  }
  est.TrimTo(10);
  EXPECT_EQ(est.num_observations(), 10u);
  EXPECT_NEAR(est.rotation_us(), 6001.0, 0.5);
}

TEST(RotationEstimator, NotReadyWithTwoObservations) {
  RotationEstimator est(6000.0);
  est.AddObservation(SimTime(100));
  est.AddObservation(SimTime(6100));
  EXPECT_FALSE(est.Ready());
}

// End-to-end: calibrate against a simulated drive whose true rotation
// deviates from nominal, with realistic noise. The paper reports phase
// prediction errors around 1% of a rotation; the estimator should do better
// than that here.
TEST(RotationEstimatorEndToEnd, CalibratesSimulatedDrive) {
  Simulator sim;
  const double true_rotation = 6000.0 * (1.0 + 25e-6);  // +25 ppm
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::Prototype(), /*seed=*/11,
               /*spindle_phase_us=*/2345.0, true_rotation);
  CalibrationOptions options;
  options.extract_seek_profile = false;
  const CalibrationResult cal = CalibrateDisk(&sim, &disk, options);
  EXPECT_NEAR(cal.rotation_us, true_rotation, 0.05);
  // Residuals should be on the order of the timestamp jitter.
  EXPECT_LT(cal.residual_rms_us, 60.0);

  // The recovered spindle phase must predict sector passage times: compare
  // against the drive's true timing model at a probe point.
  const double spindle_phase = SpindlePhaseFromLattice(
      disk.layout(), kCalibrationReferenceLba, cal.lattice_phase_us,
      cal.rotation_us);
  const DiskTimingModel& truth = disk.DebugTimingModel();
  const double t_probe = static_cast<double>(sim.Now().us()) + 12345.0;
  DiskTimingModel estimate(&disk.layout(), MakeTestSeekProfile(),
                           spindle_phase, cal.rotation_us);
  // Angle estimates agree within ~1% of a rotation, modulo the constant
  // post-overhead bias which is part of the lattice by design.
  double diff = estimate.SpindleAngleAt(t_probe) - truth.SpindleAngleAt(t_probe);
  diff -= std::round(diff);
  const DiskNoiseModel noise = DiskNoiseModel::Prototype();
  const double bias = noise.post_overhead_mean_us / 6000.0;
  EXPECT_LT(std::abs(std::abs(diff) - bias), 0.01);
}

}  // namespace
}  // namespace mimdraid
