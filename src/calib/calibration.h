// Calibration orchestration: turns a black-box drive into a configured
// head-position predictor.
//
// The sequence mirrors the paper's Calibration Layer (Section 3.1/3.2):
//   1. Reference-sector reads on a growing interval schedule establish the
//      rotation period and spindle phase.
//   2. (Optionally) the DiskProber extracts the full address map — zones,
//      skews, reserved tracks. Arrays that share a disk model run this once
//      and reuse the result.
//   3. The SeekCurveExtractor measures the (overhead-inclusive) seek curve,
//      head-switch time, and write settle.
// The result feeds a HeadPositionPredictor, which keeps itself calibrated at
// run time via periodic reference reads.
#ifndef MIMDRAID_SRC_CALIB_CALIBRATION_H_
#define MIMDRAID_SRC_CALIB_CALIBRATION_H_

#include <memory>
#include <optional>

#include "src/calib/predictor.h"
#include "src/calib/prober.h"
#include "src/calib/seek_extractor.h"
#include "src/calib/sync_disk.h"
#include "src/disk/sim_disk.h"
#include "src/sim/simulator.h"

namespace mimdraid {

// The sector whose read completions CalibrateDisk times to estimate the
// rotation period and phase.
inline constexpr uint64_t kCalibrationReferenceLba = 0;

struct CalibrationOptions {
  bool extract_seek_profile = true;
  bool probe_layout = false;  // full address-map extraction (expensive)
  SeekExtractionOptions seek;
};

struct CalibrationResult {
  double rotation_us = 0.0;
  double lattice_phase_us = 0.0;
  double residual_rms_us = 0.0;
  SeekProfile profile;  // meaningful iff profile_extracted
  bool profile_extracted = false;
  std::optional<ProbeResult> probe;
  uint64_t total_probes = 0;
  SimDuration calibration_time_us;
};

CalibrationResult CalibrateDisk(Simulator* sim, SimDisk* disk,
                                const CalibrationOptions& options = {});

// Calibrates the disk and builds a predictor from the result. If
// `shared_profile` is non-null it is used instead of extracting one (the
// common case for arrays of identical drives).
std::unique_ptr<HeadPositionPredictor> MakeCalibratedPredictor(
    Simulator* sim, SimDisk* disk, const CalibrationOptions& options = {},
    const SeekProfile* shared_profile = nullptr,
    const SlackFeedbackOptions& slack = {});

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_CALIB_CALIBRATION_H_
