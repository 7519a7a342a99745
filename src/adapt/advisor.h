// Reconfiguration advice: closes the loop from observed workload to array
// shape (the Ivy-inspired dynamic tuning the paper names as future work).
//
// The advisor feeds a WorkloadProfile into the Section 2 Configurator,
// compares the recommended aspect's predicted request time with the current
// aspect's, and — together with the MigrationPlanner's cost estimate —
// decides whether re-shaping the array pays for itself.
#ifndef MIMDRAID_SRC_ADAPT_ADVISOR_H_
#define MIMDRAID_SRC_ADAPT_ADVISOR_H_

#include "src/adapt/workload_monitor.h"
#include "src/model/configurator.h"
#include "src/model/disk_params.h"

namespace mimdraid {

struct AdvisorOptions {
  // Minimum predicted improvement (current/recommended request time) before
  // a reconfiguration is worth considering.
  double min_gain = 1.15;
};

struct Advice {
  ArrayAspect current;
  ArrayAspect recommended;
  double current_predicted_us = 0.0;
  double recommended_predicted_us = 0.0;
  // current/recommended predicted request time; > 1 means improvement.
  double predicted_gain = 1.0;
  bool reconfigure = false;
};

class ReconfigurationAdvisor {
 public:
  ReconfigurationAdvisor(const ModelDiskParams& disk_params,
                         const AdvisorOptions& options = {})
      : disk_params_(disk_params), options_(options) {}

  // Evaluates the current aspect against the model's pick for `profile`.
  Advice Evaluate(const ArrayAspect& current,
                  const WorkloadProfile& profile) const;

 private:
  ModelDiskParams disk_params_;
  AdvisorOptions options_;
};

// Cost side of the decision: how long a re-shape takes and when it pays off.
struct MigrationEstimate {
  double bytes_to_move = 0.0;
  double migration_seconds = 0.0;   // at the given background bandwidth
  double per_op_saving_us = 0.0;    // predicted
  // Seconds of the new workload after which the saved time repays the
  // migration (infinity when there is no predicted gain).
  double break_even_seconds = 0.0;
};

// `dataset_sectors` must be re-laid-out entirely (every block's placement
// changes when the aspect changes); `background_mb_per_s` is the copy
// bandwidth the migration may steal.
MigrationEstimate EstimateMigration(const Advice& advice,
                                    uint64_t dataset_sectors,
                                    double workload_io_per_s,
                                    double background_mb_per_s = 10.0);

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_ADAPT_ADVISOR_H_
