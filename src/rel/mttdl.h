// Monte Carlo MTTDL estimation over the fleet simulator.
//
// One trial (FleetSim::Run) observes a fixed horizon of simulated array
// life; the harness runs many independent trials — each seeded
// deterministically via SweepRunner::PointSeed(base_seed, trial), so the
// estimate depends only on (base_seed, trials), never on the job count or
// scheduling order — and pools them: total exposure hours and total loss
// events feed the censoring-aware exponential estimators in
// src/stats/estimate.h.
//
// Outputs: MTTDL (mean hours between whole-array losses) with a two-sided
// 95% confidence interval, plus expected-events-per-year rates for both loss
// classes (whole-array and sector loss), the reliability axis the
// bench_reliability frontier quotes next to capacity overhead and
// performance.
#ifndef MIMDRAID_SRC_REL_MTTDL_H_
#define MIMDRAID_SRC_REL_MTTDL_H_

#include <cstddef>
#include <cstdint>

#include "src/rel/fleet_sim.h"
#include "src/stats/estimate.h"

namespace mimdraid {
namespace rel {

struct MonteCarloOptions {
  // Per-trial configuration; the seed field is overwritten per trial with
  // PointSeed(base_seed, trial_index).
  FleetOptions fleet;
  uint32_t trials = 100;
  uint64_t base_seed = 1;
  // Worker threads (0 resolves via SweepRunner::ResolveJobs). Results are
  // identical for every value.
  size_t jobs = 1;
};

struct MttdlEstimate {
  // Pooled exposure across all trials.
  double total_hours = 0.0;
  // Summed per-trial counters (observed_hours is the pooled exposure,
  // last_sweep_coverage the final trial's value).
  FleetTrialResult totals;
  // Mean hours between whole-array losses, with CI (hi may be +inf when no
  // loss was observed).
  IntervalEstimate mttdl_hours;
  // Expected data-loss events per year of array operation, by class.
  IntervalEstimate array_loss_per_year;
  IntervalEstimate sector_loss_per_year;
};

// Runs the trials (in parallel when jobs != 1) and pools the estimate.
MttdlEstimate RunFleetMonteCarlo(const MonteCarloOptions& options);

}  // namespace rel
}  // namespace mimdraid

#endif  // MIMDRAID_SRC_REL_MTTDL_H_
