// MimdRaid: the assembled prototype (Figure 4's stack).
//
// Owns the simulator, the disks, the per-disk predictors (oracle or
// calibrated), the array layout, and the controller, wiring them exactly as
// the prototype does: Logical Disk Layer -> Disk Configuration Layer ->
// Scheduling Layer -> (Calibration Layer) -> device.
#ifndef MIMDRAID_SRC_CORE_MIMD_RAID_H_
#define MIMDRAID_SRC_CORE_MIMD_RAID_H_

#include <memory>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/calib/calibration.h"
#include "src/calib/predictor.h"
#include "src/disk/geometry.h"
#include "src/disk/seek_profile.h"
#include "src/disk/sim_disk.h"
#include "src/io/array_backend.h"
#include "src/ec/ec_controller.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
#include "src/model/configurator.h"
#include "src/model/fleet_spec.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/io_status.h"
#include "src/sim/simulator.h"
#include "src/workload/drivers.h"

namespace mimdraid {

struct MimdRaidOptions {
  // Redundancy policy layered over the shared DriveSet engine. kMirror is the
  // paper's replica-based design (SR/ML/ABL via `aspect`); kErasure runs
  // general (k+m) Reed-Solomon coding over the same disk budget
  // (aspect.TotalDisks() drives) with m = parity_shards drives' worth of
  // parity and k = TotalDisks() - m data shards; kRaid5 is kErasure with m
  // fixed at 1.
  ArrayBackendKind backend = ArrayBackendKind::kMirror;
  ArrayAspect aspect;  // Ds x Dr x Dm; TotalDisks() is the disk budget
  // kErasure only: parity shards per stripe row (m). 1 is RAID-5 (what
  // kRaid5 runs, ignoring this field), 2 is RAID-6, larger m tolerates m
  // concurrent losses at k/(k+m) capacity efficiency.
  uint32_t parity_shards = 2;
  SchedulerKind scheduler = SchedulerKind::kRsatf;
  size_t max_scan = 0;
  uint64_t dataset_sectors = 16'400'000;
  uint32_t stripe_unit_sectors = 128;  // 64 KiB, as in the prototype
  // Where rotational replicas live (cross-track is the paper's design).
  PlacementMode placement_mode = PlacementMode::kCrossTrack;

  // Drive model. Empty geometry selects the ST39133 defaults. These three
  // fields describe a homogeneous fleet; set `fleet` instead to mix drive
  // generations.
  DiskGeometry geometry;
  SeekProfile profile = MakeSt39133SeekProfile();
  DiskNoiseModel noise = DiskNoiseModel::None();
  // Heterogeneous drive fleet: per-slot drive generations (array slots first,
  // then hot spares). When empty, a single-generation fleet is synthesized
  // from geometry/profile/noise above — the exact homogeneous behavior.
  FleetSpec fleet;
  bool synchronized_spindles = false;
  // True spindle speeds deviate uniformly within ±tolerance of nominal.
  double rotation_tolerance_ppm = 20.0;
  uint64_t seed = 42;

  // Prediction. The oracle predictor reads the simulator's ground truth and
  // is the right choice for macro experiments (the paper validated that its
  // software predictor matches; Table 2 re-establishes that here). Setting
  // use_oracle_predictor = false runs the full software calibration path.
  // The oracle runs with 450 us of slack when any drive generation is noisy,
  // and none otherwise.
  bool use_oracle_predictor = true;
  // Cylinder distances the software calibration samples when it extracts a
  // drive generation's seek profile (SeekExtractionOptions::num_distances).
  int calibration_seek_distances = SeekExtractionOptions{}.num_distances;
  SlackFeedbackOptions slack;  // software-predictor slack policy

  // Controller.
  size_t delayed_table_limit = 10'000;
  SimDuration recalibration_interval_us;
  bool foreground_write_propagation = false;

  // Fault handling. The injector is instantiated (and wired into every disk)
  // when enable_fault_injection is true or hot_spares > 0.
  bool enable_fault_injection = false;
  FaultInjectorOptions fault;
  // Consecutive-error count at which the controller fail-stops a disk
  // (0 disables auto-failing on error count; kDiskFailed always fail-stops).
  uint32_t disk_error_fail_threshold = 0;
  // Idle-time background scrub period (0 disables scrubbing).
  SimDuration scrub_interval_us;
  // Extra drives kept spinning; promoted automatically when a disk
  // fail-stops, followed by an automatic rebuild.
  uint32_t hot_spares = 0;

  // Observability: when set, the controller reports per-request lifecycle,
  // per-slot disk ops / queue depth, and dispatch prediction error to this
  // collector (see src/obs/trace_collector.h). Borrowed; must outlive the
  // MimdRaid. nullptr (the default) disables tracing entirely.
  TraceCollector* collector = nullptr;

  // Debug tripwire: when set, the backend wires this runtime invariant
  // auditor into the simulator, every disk, and every per-drive scheduler.
  // Borrowed; must outlive the MimdRaid. Observes only.
  InvariantAuditor* auditor = nullptr;
};

class MimdRaid {
 public:
  explicit MimdRaid(const MimdRaidOptions& options);

  Simulator& sim() { return sim_; }

  // The policy-neutral face of the array: Submit/Fail/Rebuild/AddSpare/
  // stats export, whichever backend is configured.
  ArrayBackend& backend() { return *backend_; }
  const ArrayBackend& backend() const { return *backend_; }
  ArrayBackendKind backend_kind() const { return options_.backend; }

  // Backend-specific access; each CHECKs that its backend is the one
  // configured.
  ArrayController& controller();
  // Erasure-coded backends, kRaid5 included.
  EcController& ec();

  // Mirror-only: the replica layout. CHECKs on the other backends.
  const ArrayLayout& layout() const;
  // Erasure-coded backends (kRaid5 included): the (k+m) layout. CHECKs on
  // the mirror.
  const EcLayout& ec_layout() const;
  const MimdRaidOptions& options() const { return options_; }

  // Array disks only; hot spares are owned separately until promoted.
  size_t num_disks() const { return disks_.size(); }
  SimDisk& disk(size_t i) { return *disks_[i]; }
  AccessPredictor& predictor(size_t i) { return *predictors_[i]; }

  // nullptr unless fault injection was enabled.
  FaultInjector* fault_injector() { return injector_.get(); }

  // Submit function bound to the controller, for the workload drivers.
  SubmitFn Submitter();

  // Re-shapes the array to a new aspect ratio over the same disks (offline
  // migration): drains outstanding work, advances simulated time by
  // `migration_us` (the re-layout copy), then rebuilds the layout and
  // controller. Pending background propagations are completed during the
  // drain. The new aspect must use the same number of disks. Mirror-only.
  void Reshape(const ArrayAspect& aspect, SimDuration migration_us);

 private:
  // (Re)creates the configured backend over disks_/predictors_ and registers
  // the hot spares with it.
  void BuildBackend();

  MimdRaidOptions options_;
  Simulator sim_;
  std::unique_ptr<FaultInjector> injector_;
  std::vector<std::unique_ptr<SimDisk>> disks_;
  std::vector<std::unique_ptr<AccessPredictor>> predictors_;
  std::vector<std::unique_ptr<SimDisk>> spare_disks_;
  std::vector<std::unique_ptr<AccessPredictor>> spare_predictors_;
  std::unique_ptr<ArrayLayout> layout_;
  std::unique_ptr<EcLayout> ec_layout_;
  std::unique_ptr<EcCodec> ec_codec_;
  std::unique_ptr<ArrayController> controller_;
  std::unique_ptr<EcController> ec_;
  ArrayBackend* backend_ = nullptr;  // whichever of the two is live
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_CORE_MIMD_RAID_H_
