#include "src/calib/calibration.h"

#include <algorithm>

#include "src/util/check.h"

namespace mimdraid {
namespace {

// Reference reads for the rotation fit: 40 of them, sleeping 20 ms after the
// first and 1.6x longer after each later one (capped at 4 s), so the fit
// spans a wide range of revolutions.
constexpr int kReferenceReads = 40;
constexpr double kInitialIntervalUs = 20'000.0;
constexpr double kIntervalGrowth = 1.6;
constexpr double kMaxIntervalUs = 4e6;

}  // namespace

CalibrationResult CalibrateDisk(Simulator* sim, SimDisk* disk,
                                const CalibrationOptions& options) {
  MIMDRAID_CHECK(sim != nullptr);
  MIMDRAID_CHECK(disk != nullptr);
  SyncDisk sync(sim, disk);
  const SimTime t_begin = sim->Now();
  CalibrationResult result;

  // --- 1. Rotation period and phase from reference reads. ---
  RotationEstimator estimator(
      static_cast<double>(disk->geometry().RotationUs().us()));
  double interval = kInitialIntervalUs;
  for (int i = 0; i < kReferenceReads; ++i) {
    const DiskOpResult res = sync.Read(kCalibrationReferenceLba, 1);
    estimator.AddObservation(res.completion_us);
    sync.Sleep(SimDuration(static_cast<int64_t>(interval)));
    interval = std::min(interval * kIntervalGrowth, kMaxIntervalUs);
  }
  MIMDRAID_CHECK(estimator.Ready());
  result.rotation_us = estimator.rotation_us();
  result.lattice_phase_us = estimator.phase_us();
  result.residual_rms_us = estimator.ResidualRmsUs();

  const double spindle_phase =
      SpindlePhaseFromLattice(disk->layout(), kCalibrationReferenceLba,
                              result.lattice_phase_us, result.rotation_us);

  // --- 2. Address-map extraction. ---
  if (options.probe_layout) {
    DiskProber prober(&sync, disk->layout().num_data_sectors(),
                      disk->geometry().num_heads, result.rotation_us,
                      spindle_phase);
    result.probe = prober.Probe();
  }

  // --- 3. Seek curve. ---
  if (options.extract_seek_profile) {
    SeekCurveExtractor extractor(&sync, &disk->layout(), result.rotation_us,
                                 spindle_phase);
    result.profile = extractor.ExtractProfile(options.seek);
    result.profile_extracted = true;
  }

  result.total_probes = sync.probes_issued();
  result.calibration_time_us = sim->Now() - t_begin;
  return result;
}

std::unique_ptr<HeadPositionPredictor> MakeCalibratedPredictor(
    Simulator* sim, SimDisk* disk, const CalibrationOptions& options,
    const SeekProfile* shared_profile, const SlackFeedbackOptions& slack) {
  CalibrationOptions opts = options;
  if (shared_profile != nullptr) {
    opts.extract_seek_profile = false;
  }
  const CalibrationResult cal = CalibrateDisk(sim, disk, opts);
  MIMDRAID_CHECK(shared_profile != nullptr || cal.profile_extracted);
  const SeekProfile& profile =
      shared_profile != nullptr ? *shared_profile : cal.profile;
  return std::make_unique<HeadPositionPredictor>(
      &disk->layout(), profile, cal.rotation_us, cal.lattice_phase_us,
      kCalibrationReferenceLba, slack);
}

}  // namespace mimdraid
