// Mechanical timing model for a zoned disk.
//
// Given a head state and a start time, DiskTimingModel computes the full
// service timeline of an access: seek, rotational wait, and transfer
// (including track/cylinder crossings mid-transfer). The same model is used
// in two roles:
//   * inside SimDisk with the drive's *true* spindle phase — this is the
//     ground truth the simulator executes;
//   * inside the calibration layer with an *estimated* phase and extracted
//     parameters — this is the paper's software head-position predictor.
// Sharing the math guarantees that prediction error comes only from estimate
// error and unobservable noise, as on a real drive.
#ifndef MIMDRAID_SRC_DISK_TIMING_H_
#define MIMDRAID_SRC_DISK_TIMING_H_

#include <cstdint>

#include "src/disk/layout.h"
#include "src/disk/seek_profile.h"

namespace mimdraid {

struct HeadState {
  uint32_t cylinder = 0;
  uint32_t head = 0;

  bool operator==(const HeadState&) const = default;
};

struct AccessPlan {
  double seek_us = 0.0;        // arm movement + head switches
  double rotational_us = 0.0;  // rotational waits (all runs)
  double transfer_us = 0.0;    // media transfer
  double total_us = 0.0;
  HeadState end_state;
};

class DiskTimingModel {
 public:
  // `spindle_phase_us` is the time of a (virtual) index-mark passage: slot 0
  // of an unskewed track is under the head whenever
  // (t - spindle_phase_us) mod R == 0.
  // `rotation_us_override` replaces the nominal rotation period derived from
  // the geometry's RPM; real spindles run within a small tolerance of nominal
  // (~tens of ppm), which is why the paper's predictor must re-calibrate
  // periodically. Pass 0 to use the nominal period.
  DiskTimingModel(const DiskLayout* layout, const SeekProfile& profile,
                  double spindle_phase_us, double rotation_us_override = 0.0);

  // Timeline for accessing `sectors` sectors starting at `lba`, with the arm
  // at `from`, starting at absolute time `start_us`.
  AccessPlan Plan(const HeadState& from, double start_us, uint64_t lba,
                  uint32_t sectors, bool is_write) const;

  // --- Cheap lower bound on Plan(...).total_us, for scheduler pruning. ---
  // It takes the first sector's position (DiskLayout::PositionOf, cached per
  // queued candidate) instead of its LBA, so it costs one seek-table lookup
  // and one angle: no address mapping and no run-splitting walk.
  //
  // Phase-aware bound for one candidate:
  //   max(seek, rotational wait from start_us) + sectors * MinSlotTimeUs().
  // Validity: Plan >= seek + wait(start+seek) + transfer, and
  // wait(start) <= seek + wait(start+seek) because the first slot passage
  // after start+seek is never earlier than the first after start (the catch
  // tolerance shifts both passages identically, so the inequality survives
  // it).
  double AccessLowerBoundUs(const HeadState& from, double start_us,
                            SectorPos pos, uint32_t sectors,
                            bool is_write) const;
  // Fastest per-sector media transfer anywhere on the disk (outermost zone).
  double MinSlotTimeUs() const { return min_slot_time_us_; }

  // Fraction of a revolution [0, 1) the platter has rotated past the index
  // mark at time t.
  double SpindleAngleAt(double t_us) const;

  // Delay from t until the platter reaches `angle` (fraction in [0, 1)).
  double TimeUntilAngle(double t_us, double angle) const;

  const DiskLayout& layout() const { return *layout_; }
  const SeekProfile& seek_profile() const { return profile_; }
  double rotation_us() const { return rotation_us_; }

  double spindle_phase_us() const { return spindle_phase_us_; }
  void set_spindle_phase_us(double phase_us) { spindle_phase_us_ = phase_us; }
  // Also refreshes MinSlotTimeUs(): the per-slot floor scales with the
  // rotation period, and a stale (larger) floor would break the lower-bound
  // guarantee after a downward re-estimate.
  void set_rotation_us(double rotation_us) {
    rotation_us_ = rotation_us;
    min_slot_time_us_ = rotation_us_ / max_sectors_per_track_;
  }

 private:
  const DiskLayout* layout_;
  SeekProfile profile_;
  double rotation_us_;
  double spindle_phase_us_;
  double min_slot_time_us_ = 0.0;
  uint32_t max_sectors_per_track_ = 1;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_DISK_TIMING_H_
