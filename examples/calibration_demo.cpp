// Software head-position prediction on a black-box drive (Section 3.2).
//
// Treats a simulated drive as a raw device: estimates the rotation period and
// spindle phase from reference-sector reads, extracts the zone map and skews
// from timing alone, fits the seek curve, then demonstrates prediction
// accuracy on a random workload (the Table 2 experiment).
//
// Run: ./calibration_demo
#include <cstdio>

#include "src/calib/calibration.h"
#include "src/calib/prober.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

using namespace mimdraid;

int main() {
  Simulator sim;
  const DiskGeometry geometry = MakeSt39133Geometry();
  // The "real" drive: noisy overheads, spindle 31 ppm off nominal, unknown
  // phase.
  const double true_rotation = 6000.0 * (1.0 + 31e-6);
  SimDisk disk(&sim, geometry, MakeSt39133SeekProfile(),
               DiskNoiseModel::Prototype(), /*seed=*/2026,
               /*spindle_phase_us=*/4711.0, true_rotation);

  std::printf("== Phase 1: rotation estimation from reference-sector reads ==\n");
  CalibrationOptions options;
  options.probe_layout = true;
  options.seek.num_distances = 24;
  options.seek.searches_per_distance = 5;
  options.seek.binary_search_iterations = 13;
  const CalibrationResult cal = CalibrateDisk(&sim, &disk, options);
  std::printf("  nominal rotation: 6000.000 us\n");
  std::printf("  true rotation:    %.3f us\n", true_rotation);
  std::printf("  estimated:        %.3f us (residual RMS %.1f us)\n",
              cal.rotation_us, cal.residual_rms_us);

  std::printf("\n== Phase 2: address-map extraction (Worthington-style) ==\n");
  std::printf("  %zu zones found, %u reserved track(s), %llu probes\n",
              cal.probe->zones.size(), cal.probe->reserved_tracks,
              static_cast<unsigned long long>(cal.probe->probes_used));
  std::printf("  %-6s %-10s %-6s %-11s %-13s\n", "zone", "first_cyl", "SPT",
              "track_skew", "cylinder_skew");
  for (size_t z = 0; z < cal.probe->zones.size(); ++z) {
    const ProbedZone& pz = cal.probe->zones[z];
    const Zone& truth = geometry.zones[z];
    std::printf("  %-6zu %-10u %-6u %-11u %-13u %s\n", z, pz.first_cylinder,
                pz.sectors_per_track, pz.track_skew, pz.cylinder_skew,
                (pz.sectors_per_track == truth.sectors_per_track &&
                 pz.track_skew == truth.track_skew &&
                 pz.cylinder_skew == truth.cylinder_skew &&
                 pz.first_cylinder == truth.first_cylinder)
                    ? "(exact)"
                    : "(MISMATCH)");
  }

  std::printf("\n== Phase 3: extracted seek curve ==\n");
  std::printf("  short regime: %.0f + %.1f*sqrt(d) us (true 600 + 116.0*sqrt(d) + 300 overhead)\n",
              cal.profile.short_a_us, cal.profile.short_b_us);
  std::printf("  head switch: %.0f us, write settle: %.0f us\n",
              cal.profile.head_switch_us, cal.profile.write_settle_us);

  std::printf("\n== Phase 4: prediction accuracy (Table 2 style) ==\n");
  HeadPositionPredictor predictor(&disk.layout(), cal.profile,
                                  cal.rotation_us, cal.lattice_phase_us,
                                  kCalibrationReferenceLba);
  Rng rng(7);
  const int kOps = 4000;
  for (int i = 0; i < kOps; ++i) {
    // Like the RSATF scheduler, avoid targets whose predicted rotational wait
    // is inside the slack (on a replicated layout the scheduler would take
    // the next replica instead).
    uint64_t lba = rng.UniformU64(disk.num_sectors());
    AccessPlan plan = predictor.Predict(sim.Now(), BlockAddr(lba), 1, false);
    for (int retry = 0;
         retry < 8 && plan.rotational_us < predictor.SlackUs(); ++retry) {
      lba = rng.UniformU64(disk.num_sectors());
      plan = predictor.Predict(sim.Now(), BlockAddr(lba), 1, false);
    }
    predictor.OnDispatch(sim.Now(), BlockAddr(lba), 1, false, plan.total_us);
    bool done = false;
    SimTime completion(0);
    disk.Start(DiskOp::kRead, BlockAddr(lba), 1, [&](const DiskOpResult& r) {
      completion = r.completion_us;
      done = true;
    });
    while (!done) {
      sim.Step();
    }
    predictor.OnCompletion(completion, BlockAddr(lba), 1);
  }
  const PredictorStats& stats = predictor.stats();
  std::printf("  requests:                 %d\n", kOps);
  std::printf("  misses:                   %.2f%%   (paper: 0.22%%)\n",
              stats.MissRate() * 100.0);
  std::printf("  mean prediction error:    %.0f us  (paper: 3 us)\n",
              stats.error_us.mean());
  std::printf("  stddev of error:          %.0f us  (paper: 31 us)\n",
              stats.error_us.stddev());
  std::printf("  average access time:      %.0f us  (paper: 2746 us)\n",
              stats.access_time_us.mean());
  std::printf("  demerit:                  %.0f us  (paper: 52 us)\n",
              stats.DemeritUs());
  std::printf("  demerit/access time:      %.1f%%   (paper: 1.9%%)\n",
              100.0 * stats.DemeritUs() / stats.access_time_us.mean());
  return 0;
}
