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

double DiskTimingModel::TimeUntilAngle(double t_us, double angle) const {
  double delta = angle - SpindleAngleAt(t_us);
  delta -= std::floor(delta);
  if (delta >= 1.0) {
    delta -= 1.0;
  }
  // Catch tolerance: if the target slot started passing within the last
  // couple of microseconds (sector preamble/tolerance on a real drive, and
  // integer-microsecond timestamp rounding here), the access still makes it.
  // Without this, a perfectly chained sequential handoff can round past the
  // slot edge and be charged a full spurious rotation.
  const double catch_frac = 2.0 / rotation_us_;
  if (delta > 1.0 - catch_frac) {
    delta = 0.0;
  }
  return delta * rotation_us_;
}

double DiskTimingModel::AccessLowerBoundUs(const HeadState& from,
                                           double start_us, SectorPos pos,
                                           uint32_t sectors,
                                           bool is_write) const {
  double seek = 0.0;
  if (pos.cylinder != from.cylinder) {
    const uint32_t dist = pos.cylinder > from.cylinder
                              ? pos.cylinder - from.cylinder
                              : from.cylinder - pos.cylinder;
    seek = profile_.SeekUs(dist, is_write);
  }
  const double wait =
      TimeUntilAngle(start_us, static_cast<double>(pos.slot) / pos.spt);
  // Rounding margin: the bound and Plan() evaluate the same exact-arithmetic
  // quantities through different association orders, so the bound can land a
  // few ulps (~1e-11 us in practice) above the true total. One nanosecond of
  // slack keeps this a certain lower bound; the only cost is a spare full
  // prediction when a candidate's bound is within 1 ns of the running best.
  constexpr double kRoundingMarginUs = 1e-3;
  return std::max(seek, wait) + sectors * min_slot_time_us_ - kRoundingMarginUs;
}

AccessPlan DiskTimingModel::Plan(const HeadState& from, double start_us,
                                 uint64_t lba, uint32_t sectors,
                                 bool is_write) const {
  MIMDRAID_CHECK_GT(sectors, 0u);
  const DiskGeometry& geo = layout_->geometry();
  AccessPlan plan;
  double t = start_us;
  HeadState cur = from;
  uint64_t next_lba = lba;
  uint32_t remaining = sectors;

  while (remaining > 0) {
    const Chs chs = layout_->ToChs(next_lba);
    const Zone& zone = geo.ZoneOf(chs.cylinder);
    const uint32_t spt = zone.sectors_per_track;
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
    const uint32_t slot = layout_->SlotOf(chs, zone);
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
