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

#include <algorithm>
#include <cmath>
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

// Delay for the platter to turn from `from_angle` to `to_angle` (fractions
// of a revolution in [0, 1)), for a rotation period of `rotation_us`.
// Catch tolerance: if the target slot started passing within the last
// `catch_frac` of a revolution (sector preamble/tolerance on a real drive,
// and integer-microsecond timestamp rounding here), the access still makes
// it. Without this, a perfectly chained sequential handoff can round past
// the slot edge and be charged a full spurious rotation.
inline double RotationalWaitUs(double from_angle, double to_angle,
                               double rotation_us, double catch_frac) {
  double delta = to_angle - from_angle;
  delta -= std::floor(delta);
  if (delta >= 1.0) {
    delta -= 1.0;
  }
  if (delta > 1.0 - catch_frac) {
    delta = 0.0;
  }
  return delta * rotation_us;
}

// Cheap lower bound on Plan(...).total_us for every access a scheduler ranks
// in one pick, for pruning. Everything but the candidate's position is the
// same for the whole pick (head cylinder, spindle angle at the start time,
// rotation period, transfer floor, the predictor's additive offset), so
// DiskTimingModel::BoundFrom snapshots it once and each candidate pays only
// for its own seek and angle: no address mapping, no run-splitting walk and
// no virtual call.
//
// Bound for one candidate at `pos` (DiskLayout::PositionOf, cached per
// queued candidate):
//   max(seek, rotational wait from start) + sectors * min_slot + offset.
// Validity: Plan >= seek + wait(start+seek) + transfer, and
// wait(start) <= seek + wait(start+seek) because the first slot passage
// after start+seek is never earlier than the first after start (the catch
// tolerance shifts both passages identically, so the inequality survives it).
//
// Us(SeekUs(...), sectors) is the seek-only term; it never exceeds the full
// bound (max(seek, wait) >= seek, and rounded addition is monotone), so a
// scheduler can test it first and compute the wait only for candidates it
// keeps.
class AccessBound {
 public:
  // Every term is zero: the bound is 0 for any access, so it prunes nothing.
  AccessBound() = default;

  // Seek time from the head's cylinder to `pos`'s.
  double SeekUs(SectorPos pos, bool is_write) const {
    const uint32_t dist = pos.cylinder > head_cylinder_
                              ? pos.cylinder - head_cylinder_
                              : head_cylinder_ - pos.cylinder;
    return seek_.SeekUs(dist, is_write);
  }
  // Rotational wait from the pick's start time until `pos`'s slot arrives.
  double WaitUs(SectorPos pos) const {
    return RotationalWaitUs(start_angle_,
                            static_cast<double>(pos.slot) / pos.spt,
                            rotation_us_, catch_frac_);
  }
  // The bound for a positioning time (the seek alone, or max(seek, wait)).
  double Us(double positioning_us, uint32_t sectors) const {
    return positioning_us + sectors * min_slot_us_ - margin_us_ + offset_us_;
  }
  // The full bound for an access of `sectors` sectors starting at `pos`.
  double Us(SectorPos pos, uint32_t sectors, bool is_write) const {
    return Us(std::max(SeekUs(pos, is_write), WaitUs(pos)), sectors);
  }

 private:
  friend class DiskTimingModel;

  // Zero everywhere, so a default bound's seek is 0 at any distance.
  SeekProfile seek_{.short_a_us = 0.0,
                    .short_b_us = 0.0,
                    .long_a_us = 0.0,
                    .long_b_us = 0.0,
                    .write_settle_us = 0.0};
  uint32_t head_cylinder_ = 0;
  double start_angle_ = 0.0;
  double rotation_us_ = 0.0;
  double catch_frac_ = 0.0;
  double min_slot_us_ = 0.0;
  double margin_us_ = 0.0;
  double offset_us_ = 0.0;
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

  // Lower bound on Plan(from, start_us, ...).total_us + offset_us for any
  // access, snapshotted from the model's current state: build it once per
  // pick, and again after any change to the model or the head.
  AccessBound BoundFrom(const HeadState& from, double start_us,
                        double offset_us) const;
  // Fastest per-sector media transfer anywhere on the disk (outermost zone).
  double MinSlotTimeUs() const { return min_slot_time_us_; }

  // Fraction of a revolution [0, 1) the platter has rotated past the index
  // mark at time t.
  double SpindleAngleAt(double t_us) const;

  // Delay from t until the platter reaches `angle` (fraction in [0, 1)).
  double TimeUntilAngle(double t_us, double angle) const {
    return RotationalWaitUs(SpindleAngleAt(t_us), angle, rotation_us_,
                            CatchFraction());
  }

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
  // Catch tolerance of RotationalWaitUs: two microseconds of a revolution.
  double CatchFraction() const { return 2.0 / rotation_us_; }

  const DiskLayout* layout_;
  SeekProfile profile_;
  double rotation_us_;
  double spindle_phase_us_;
  double min_slot_time_us_ = 0.0;
  uint32_t max_sectors_per_track_ = 1;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_DISK_TIMING_H_
