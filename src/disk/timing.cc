#include "src/disk/timing.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace mimdraid {

DiskTimingModel::DiskTimingModel(const DiskLayout* layout,
                                 const SeekProfile& profile,
                                 double spindle_phase_us,
                                 double rotation_us_override)
    : layout_(layout),
      profile_(profile),
      rotation_us_(rotation_us_override > 0.0
                       ? rotation_us_override
                       : static_cast<double>(layout->geometry().RotationUs().us())),
      spindle_phase_us_(spindle_phase_us) {
  MIMDRAID_CHECK(layout != nullptr);
  for (const Zone& zone : layout->geometry().zones) {
    max_sectors_per_track_ = std::max(max_sectors_per_track_,
                                      zone.sectors_per_track);
  }
  min_slot_time_us_ = rotation_us_ / max_sectors_per_track_;
}

double DiskTimingModel::SpindleAngleAt(double t_us) const {
  const double revs = (t_us - spindle_phase_us_) / rotation_us_;
  double frac = revs - std::floor(revs);
  if (frac >= 1.0) {
    frac -= 1.0;
  }
  return frac;
}

AccessBound DiskTimingModel::BoundFrom(const HeadState& from, double start_us,
                                       double offset_us) const {
  AccessBound bound;
  bound.seek_ = profile_;
  bound.head_cylinder_ = from.cylinder;
  bound.start_angle_ = SpindleAngleAt(start_us);
  bound.rotation_us_ = rotation_us_;
  bound.catch_frac_ = CatchFraction();
  bound.min_slot_us_ = min_slot_time_us_;
  // Rounding margin: the bound and Plan() evaluate the same exact-arithmetic
  // quantities through different association orders, so the bound can land a
  // few ulps (~1e-11 us in practice) above the true total. One nanosecond of
  // slack keeps this a certain lower bound; the only cost is a spare full
  // prediction when a candidate's bound is within 1 ns of the running best.
  bound.margin_us_ = 1e-3;
  bound.offset_us_ = offset_us;
  return bound;
}

AccessPlan DiskTimingModel::Plan(const HeadState& from, double start_us,
                                 uint64_t lba, uint32_t sectors,
                                 bool is_write) const {
  MIMDRAID_CHECK_GT(sectors, 0u);
  AccessPlan plan;
  double t = start_us;
  HeadState cur = from;
  uint64_t next_lba = lba;
  uint32_t remaining = sectors;

  while (remaining > 0) {
    const Zone* zone = nullptr;
    const Chs chs = layout_->ToChs(next_lba, &zone);
    const uint32_t spt = zone->sectors_per_track;
    const double slot_time = rotation_us_ / spt;

    // Length of the physically contiguous run on this track: LBAs advance one
    // slot at a time until the track ends or a remapped sector breaks the run.
    uint32_t run = spt - chs.sector;
    if (run > remaining) {
      run = remaining;
    }
    if (layout_->has_remaps()) {
      if (layout_->IsRemapped(next_lba)) {
        run = 1;  // remapped sector lives alone on the spare track
      } else {
        for (uint32_t i = 1; i < run; ++i) {
          if (layout_->IsRemapped(next_lba + i)) {
            run = i;
            break;
          }
        }
      }
    }

    // Positioning: seek dominates a concurrent head switch.
    if (chs.cylinder != cur.cylinder) {
      const uint32_t dist = chs.cylinder > cur.cylinder
                                ? chs.cylinder - cur.cylinder
                                : cur.cylinder - chs.cylinder;
      const double seek = profile_.SeekUs(dist, is_write);
      plan.seek_us += seek;
      t += seek;
    } else if (chs.head != cur.head) {
      plan.seek_us += profile_.head_switch_us;
      t += profile_.head_switch_us;
    }
    cur.cylinder = chs.cylinder;
    cur.head = chs.head;

    // Rotational wait until the run's first slot comes under the head.
    const uint32_t slot = layout_->SlotOf(chs, *zone);
    const double wait = TimeUntilAngle(t, static_cast<double>(slot) / spt);
    plan.rotational_us += wait;
    t += wait;

    // Media transfer of the run (slots are consecutive by construction).
    const double xfer = run * slot_time;
    plan.transfer_us += xfer;
    t += xfer;

    next_lba += run;
    remaining -= run;
  }

  plan.end_state = cur;
  plan.total_us = t - start_us;
  return plan;
}

}  // namespace mimdraid
