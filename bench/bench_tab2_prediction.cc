// Table 2: head-position prediction accuracy under the Cello base workload.
//
// Runs the full software stack — rotation/phase estimation from reference
// reads, extracted seek profile, per-disk head tracking with two-minute
// re-calibration — on noisy drives, plays a Cello-base-like trace against a
// 2x3 SR-Array with RSATF, and reports the Table 2 statistics aggregated over
// the drives' predictors.
#include <cstdio>

#include "bench/bench_common.h"
#include "src/calib/predictor.h"

using namespace mimdraid;
using namespace mimdraid::bench;

int main() {
  PrintHeader("Table 2", "Prediction accuracy on Cello base (2x3 SR-Array, RSATF)");

  SyntheticTraceParams params = CelloBaseParams(/*duration_s=*/4 * 3600, 5);
  // Play at 8x so the short trace exercises plenty of physical I/O.
  const Trace trace = GenerateSyntheticTrace(params);

  MimdRaidOptions options;
  options.aspect = Aspect(2, 3);
  options.scheduler = SchedulerKind::kRsatf;
  options.dataset_sectors = trace.dataset_sectors;
  options.noise = DiskNoiseModel::Prototype();
  options.use_oracle_predictor = false;
  options.recalibration_interval_us = SimDuration(120'000'000);
  options.calibration_seek_distances = 12;
  options.max_scan = 128;
  MimdRaid array(options);

  TracePlayerOptions popt;
  popt.rate_scale = 8.0;
  const RunResult run = RunTraceOnArray(array, trace, popt);

  PredictorStats total;
  for (size_t i = 0; i < array.num_disks(); ++i) {
    const auto& p = dynamic_cast<HeadPositionPredictor&>(array.predictor(i));
    total.predictions += p.stats().predictions;
    total.misses += p.stats().misses;
    total.error_us.Merge(p.stats().error_us);
    total.access_time_us.Merge(p.stats().access_time_us);
    total.squared_error_sum += p.stats().squared_error_sum;
  }

  std::printf("physical I/Os predicted: %llu (trace replayed at 8x, %llu ops)\n\n",
              static_cast<unsigned long long>(total.predictions),
              static_cast<unsigned long long>(run.completed));
  std::printf("%-32s %-12s %s\n", "", "paper", "measured");
  std::printf("%-32s %-12s %.2f%%\n", "Misses", "0.22%",
              total.MissRate() * 100.0);
  std::printf("%-32s %-12s %.0f us\n", "Mean prediction error", "3 us",
              total.error_us.mean());
  std::printf("%-32s %-12s %.0f us\n", "Stddev of error", "31 us",
              total.error_us.stddev());
  std::printf("%-32s %-12s %.0f us\n", "Average access time", "2746 us",
              total.access_time_us.mean());
  std::printf("%-32s %-12s %.0f us\n", "Demerit", "52 us", total.DemeritUs());
  std::printf("%-32s %-12s %.1f%%\n", "Demerit / access time", "1.9%",
              100.0 * total.DemeritUs() / total.access_time_us.mean());
  return 0;
}
