#include "src/adapt/advisor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace mimdraid {

Advice ReconfigurationAdvisor::Evaluate(const ArrayAspect& current,
                                        const WorkloadProfile& profile) const {
  Advice advice;
  advice.current = current;

  ConfiguratorInputs in;
  in.num_disks = current.TotalDisks();
  in.max_seek_us = disk_params_.max_seek_us;
  in.rotation_us = disk_params_.rotation_us;
  in.p = std::clamp(profile.p_estimate, 0.0, 1.0);
  in.queue_depth = std::max(1.0, profile.mean_queue_depth /
                                     std::max(1, current.TotalDisks()));
  in.locality = std::max(1.0, profile.locality);

  const ConfigCandidate pick = ChooseConfig(in);
  advice.recommended = pick.aspect;
  advice.recommended_predicted_us = pick.predicted_latency_us;
  advice.current_predicted_us = PredictLatencyUs(in, current);
  advice.predicted_gain =
      advice.recommended_predicted_us > 0.0
          ? advice.current_predicted_us / advice.recommended_predicted_us
          : 1.0;
  const bool same = pick.aspect.ds == current.ds &&
                    pick.aspect.dr == current.dr &&
                    pick.aspect.dm == current.dm;
  advice.reconfigure = !same && advice.predicted_gain >= options_.min_gain;
  return advice;
}

MigrationEstimate EstimateMigration(const Advice& advice,
                                    uint64_t dataset_sectors,
                                    double workload_io_per_s,
                                    double background_mb_per_s) {
  MIMDRAID_CHECK_GT(background_mb_per_s, 0.0);
  MigrationEstimate est;
  est.bytes_to_move = static_cast<double>(dataset_sectors) * 512.0;
  // Every block is read once and written Dr*Dm times under the new shape.
  const double amplification =
      1.0 + static_cast<double>(advice.recommended.ReplicasPerBlock());
  est.migration_seconds =
      est.bytes_to_move * amplification / (background_mb_per_s * 1e6);
  est.per_op_saving_us =
      advice.current_predicted_us - advice.recommended_predicted_us;
  if (est.per_op_saving_us <= 0.0 || workload_io_per_s <= 0.0) {
    est.break_even_seconds = std::numeric_limits<double>::infinity();
    return est;
  }
  const double saving_per_second_us = est.per_op_saving_us * workload_io_per_s;
  est.break_even_seconds =
      est.migration_seconds * 1e6 / saving_per_second_us;
  return est;
}

}  // namespace mimdraid
