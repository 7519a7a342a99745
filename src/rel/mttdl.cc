#include "src/rel/mttdl.h"

#include <vector>

#include "src/core/sweep_runner.h"
#include "src/util/check.h"

namespace mimdraid {
namespace rel {

// Two-sided level of every interval the estimate reports.
constexpr double kConfidence = 0.95;

MttdlEstimate RunFleetMonteCarlo(const MonteCarloOptions& options) {
  MIMDRAID_CHECK_GT(options.trials, 0u);
  std::vector<FleetTrialResult> trials(options.trials);
  SweepRunner runner(options.jobs);
  for (uint32_t i = 0; i < options.trials; ++i) {
    runner.Submit([&options, &trials, i] {
      FleetOptions fleet = options.fleet;
      fleet.seed = SweepRunner::PointSeed(options.base_seed, i);
      FleetSim sim(fleet);
      trials[i] = sim.Run();
    });
  }
  runner.Wait();

  MttdlEstimate est;
  for (const FleetTrialResult& t : trials) {
    est.totals.observed_hours += t.observed_hours;
    est.totals.data_loss_events += t.data_loss_events;
    est.totals.sector_loss_events += t.sector_loss_events;
    est.totals.disk_failures += t.disk_failures;
    est.totals.rebuilds_completed += t.rebuilds_completed;
    est.totals.lse_arrivals += t.lse_arrivals;
    est.totals.lse_scrub_cleared += t.lse_scrub_cleared;
    est.totals.scrub_sweeps += t.scrub_sweeps;
    est.totals.events_processed += t.events_processed;
    est.totals.last_sweep_coverage = t.last_sweep_coverage;
  }
  est.total_hours = est.totals.observed_hours;
  est.mttdl_hours = ExponentialMeanEstimate(
      est.total_hours, est.totals.data_loss_events, kConfidence);
  est.array_loss_per_year = EventsPerYearEstimate(
      est.total_hours, est.totals.data_loss_events, kConfidence);
  est.sector_loss_per_year = EventsPerYearEstimate(
      est.total_hours, est.totals.sector_loss_events, kConfidence);
  return est;
}

}  // namespace rel
}  // namespace mimdraid
