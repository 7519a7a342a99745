// Seek-time model.
//
// Seek time as a function of cylinder distance follows the classic two-regime
// shape (Ruemmler & Wilkes, "An Introduction to Disk Drive Modeling"): for
// short seeks the arm spends most of its time accelerating and the time grows
// with the square root of the distance; for long seeks the arm reaches a
// coast velocity and the time grows linearly. Writes pay an additional settle
// penalty because the fine-positioning tolerance is tighter for writing.
#ifndef MIMDRAID_SRC_DISK_SEEK_PROFILE_H_
#define MIMDRAID_SRC_DISK_SEEK_PROFILE_H_

#include <cmath>
#include <cstdint>

namespace mimdraid {

struct SeekProfile {
  // Short-seek regime: time_us = short_a_us + short_b_us * sqrt(distance),
  // for 1 <= distance < boundary_cylinders.
  double short_a_us = 600.0;
  double short_b_us = 116.0;
  // Long-seek regime: time_us = long_a_us + long_b_us * distance,
  // for distance >= boundary_cylinders.
  double long_a_us = 3660.0;
  double long_b_us = 0.91;
  uint32_t boundary_cylinders = 1400;
  // Head switch within a cylinder (no arm movement).
  double head_switch_us = 900.0;
  // Extra settle time charged to writes (tighter positioning tolerance).
  double write_settle_us = 800.0;

  // Seek time for the given cylinder distance. Zero distance costs nothing
  // (head-switch cost, if any, is charged separately by the timing model).
  // Inline: the scheduler bound evaluates it for every queued candidate.
  double SeekUs(uint32_t distance, bool is_write) const {
    if (distance == 0) {
      return 0.0;
    }
    double t;
    if (distance < boundary_cylinders) {
      t = short_a_us + short_b_us * std::sqrt(static_cast<double>(distance));
    } else {
      t = long_a_us + long_b_us * static_cast<double>(distance);
    }
    if (is_write) {
      t += write_settle_us;
    }
    return t;
  }

  // Largest seek this profile will ever report for a disk with
  // `num_cylinders` cylinders (the full-stroke read seek).
  double MaxSeekUs(uint32_t num_cylinders) const;

  // Closed-form average read seek over uniformly random (from, to) cylinder
  // pairs, computed by numeric averaging over the distance distribution.
  double AverageRandomSeekUs(uint32_t num_cylinders) const;

  // True if the two regimes are continuous to within `tol_us` at the boundary
  // and both are monotonically non-decreasing.
  bool WellFormed(double tol_us = 50.0) const;
};

// Profile approximating the ST39133LWV (Table 1: 5.2 ms average read seek,
// 6.0 ms average write seek, ~10 ms full stroke).
SeekProfile MakeSt39133SeekProfile();

// Fast, exaggerated profile for unit tests (round numbers).
SeekProfile MakeTestSeekProfile();

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_DISK_SEEK_PROFILE_H_
