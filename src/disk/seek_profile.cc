#include "src/disk/seek_profile.h"

#include <cmath>

#include "src/util/check.h"

namespace mimdraid {

double SeekProfile::MaxSeekUs(uint32_t num_cylinders) const {
  MIMDRAID_CHECK_GT(num_cylinders, 1u);
  return SeekUs(num_cylinders - 1, /*is_write=*/false);
}

double SeekProfile::AverageRandomSeekUs(uint32_t num_cylinders) const {
  MIMDRAID_CHECK_GT(num_cylinders, 1u);
  // For uniform independent (from, to) over C cylinders, the distance d has
  // probability 2(C-d)/C^2 for d in [1, C-1] (and C/C^2 at d=0, costing 0).
  const double c = static_cast<double>(num_cylinders);
  double sum = 0.0;
  for (uint32_t d = 1; d < num_cylinders; ++d) {
    const double p = 2.0 * (c - d) / (c * c);
    sum += p * SeekUs(d, /*is_write=*/false);
  }
  return sum;
}

bool SeekProfile::WellFormed(double tol_us) const {
  if (boundary_cylinders < 2) {
    return false;
  }
  const double short_at_boundary =
      short_a_us + short_b_us * std::sqrt(static_cast<double>(boundary_cylinders));
  const double long_at_boundary =
      long_a_us + long_b_us * static_cast<double>(boundary_cylinders);
  if (std::abs(short_at_boundary - long_at_boundary) > tol_us) {
    return false;
  }
  return short_b_us >= 0.0 && long_b_us >= 0.0 && short_a_us >= 0.0 &&
         long_a_us >= 0.0 && head_switch_us >= 0.0 && write_settle_us >= 0.0;
}

SeekProfile MakeSt39133SeekProfile() {
  SeekProfile p;
  p.short_a_us = 600.0;
  p.short_b_us = 116.0;
  p.boundary_cylinders = 1400;
  // Long regime chosen continuous with the short regime at the boundary:
  // 600 + 116*sqrt(1400) = 4940.3; 3666 + 0.91*1400 = 4940.0.
  p.long_a_us = 3666.0;
  p.long_b_us = 0.91;
  p.head_switch_us = 900.0;
  p.write_settle_us = 800.0;
  MIMDRAID_CHECK(p.WellFormed());
  return p;
}

SeekProfile MakeTestSeekProfile() {
  SeekProfile p;
  p.short_a_us = 500.0;
  p.short_b_us = 100.0;
  p.boundary_cylinders = 16;
  // 500 + 100*4 = 900 at the boundary; 660 + 15*16 = 900.
  p.long_a_us = 660.0;
  p.long_b_us = 15.0;
  p.head_switch_us = 300.0;
  p.write_settle_us = 200.0;
  MIMDRAID_CHECK(p.WellFormed());
  return p;
}

}  // namespace mimdraid
