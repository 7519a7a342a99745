// AdaptiveArray: the closed loop of monitor -> advisor -> reshape.
//
// Wraps a MimdRaid, taps its request stream through a WorkloadMonitor, and on
// demand consults the ReconfigurationAdvisor; when the predicted gain clears
// the threshold, the array is re-shaped (offline migration whose duration
// comes from the MigrationPlanner estimate). This implements the dynamic
// tuning the paper defers to future work (Section 5, the Ivy discussion).
#ifndef MIMDRAID_SRC_CORE_ADAPTIVE_ARRAY_H_
#define MIMDRAID_SRC_CORE_ADAPTIVE_ARRAY_H_

#include <memory>
#include <vector>

#include "src/adapt/advisor.h"
#include "src/adapt/workload_monitor.h"
#include "src/core/experiment.h"
#include "src/core/mimd_raid.h"

namespace mimdraid {

struct AdaptiveArrayOptions {
  MimdRaidOptions base;
  AdvisorOptions advisor;
  // Requests the monitor's profile window covers; smaller windows react to
  // phase changes faster.
  size_t monitor_window = 4096;
};

struct ReshapeEvent {
  SimTime at_us;
  ArrayAspect from;
  ArrayAspect to;
  double predicted_gain = 1.0;
  double migration_seconds = 0.0;
};

class AdaptiveArray {
 public:
  explicit AdaptiveArray(const AdaptiveArrayOptions& options);

  MimdRaid& array() { return *array_; }
  Simulator& sim() { return array_->sim(); }
  const WorkloadMonitor& monitor() const { return monitor_; }
  const std::vector<ReshapeEvent>& reshapes() const { return reshapes_; }

  // Submit function that taps the monitor and forwards to the array.
  SubmitFn Submitter();

  // Consults the advisor on the current window; re-shapes if worthwhile.
  // Returns the advice either way. Quiesces the array when re-shaping.
  Advice Adapt();

 private:
  AdaptiveArrayOptions options_;
  std::unique_ptr<MimdRaid> array_;
  WorkloadMonitor monitor_;
  ReconfigurationAdvisor advisor_;
  ModelDiskParams disk_params_;
  std::vector<ReshapeEvent> reshapes_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_CORE_ADAPTIVE_ARRAY_H_
