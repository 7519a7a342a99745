#include "src/core/mimd_raid.h"

#include <utility>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace mimdraid {

MimdRaid::MimdRaid(const MimdRaidOptions& options) : options_(options) {
  const int d = options_.aspect.TotalDisks();
  MIMDRAID_CHECK_GE(d, 1);
  const int total_drives = d + static_cast<int>(options_.hot_spares);
  if (options_.fleet.empty()) {
    // Homogeneous fleet synthesized from the single-drive-model options.
    if (options_.geometry.zones.empty()) {
      options_.geometry = MakeSt39133Geometry();
    }
    MIMDRAID_CHECK(options_.geometry.Valid());
    options_.fleet = MakeHomogeneousFleet("default", options_.geometry,
                                          options_.profile, options_.noise);
  }
  MIMDRAID_CHECK(options_.fleet.Valid());
  MIMDRAID_CHECK(options_.fleet.slot_generation.empty() ||
                 options_.fleet.slot_generation.size() ==
                     static_cast<size_t>(total_drives));

  if (options_.enable_fault_injection || options_.hot_spares > 0) {
    FaultInjectorOptions fopts = options_.fault;
    if (fopts.seed == FaultInjectorOptions{}.seed) {
      fopts.seed = options_.seed;
    }
    injector_ = std::make_unique<FaultInjector>(fopts);
  }

  Rng rng(options_.seed);
  for (int i = 0; i < total_drives; ++i) {
    const DriveParams& model =
        options_.fleet.generations[options_.fleet.GenerationFor(i)];
    const double rotation_nominal =
        static_cast<double>(model.geometry.RotationUs().us());
    const double phase =
        options_.synchronized_spindles
            ? 0.0
            : rng.UniformDouble() * rotation_nominal;
    const double tolerance = options_.rotation_tolerance_ppm * 1e-6;
    const double rotation =
        rotation_nominal * (1.0 + rng.UniformDouble(-tolerance, tolerance));
    auto disk = std::make_unique<SimDisk>(
        &sim_, model.geometry, model.profile, model.noise,
        rng.Next(), phase, rotation);
    if (i < d) {
      disks_.push_back(std::move(disk));
    } else {
      spare_disks_.push_back(std::move(disk));
    }
  }

  if (options_.use_oracle_predictor) {
    // Noisy drives hide part of each request's overhead from the oracle;
    // 450 us of slack keeps the on-target rate up. Noise-free drives need
    // none.
    bool noisy = false;
    for (const DriveParams& g : options_.fleet.generations) {
      noisy = noisy || g.noise.overhead_stddev_us > 0.0 ||
              g.noise.hiccup_prob > 0.0;
    }
    const double slack = noisy ? 450.0 : 0.0;
    for (auto& disk : disks_) {
      predictors_.push_back(
          std::make_unique<OraclePredictor>(disk.get(), slack));
    }
    for (auto& disk : spare_disks_) {
      spare_predictors_.push_back(
          std::make_unique<OraclePredictor>(disk.get(), slack));
    }
  } else {
    // Seek-profile extraction runs once per drive *generation* (identical
    // drives share a full calibration); every disk then runs the cheap
    // phase-only pass against its generation's profile.
    CalibrationOptions full;
    full.seek.num_distances = options_.calibration_seek_distances;
    CalibrationOptions phase_only;
    phase_only.extract_seek_profile = false;
    std::vector<std::unique_ptr<CalibrationResult>> generation_calib(
        options_.fleet.generations.size());
    const auto calibrated = [&](size_t slot, SimDisk* disk) {
      const uint32_t gen = options_.fleet.GenerationFor(slot);
      if (generation_calib[gen] == nullptr) {
        generation_calib[gen] =
            std::make_unique<CalibrationResult>(CalibrateDisk(&sim_, disk,
                                                              full));
      }
      return MakeCalibratedPredictor(&sim_, disk, phase_only,
                                     &generation_calib[gen]->profile,
                                     options_.slack);
    };
    for (size_t i = 0; i < disks_.size(); ++i) {
      predictors_.push_back(calibrated(i, disks_[i].get()));
    }
    for (size_t i = 0; i < spare_disks_.size(); ++i) {
      spare_predictors_.push_back(
          calibrated(disks_.size() + i, spare_disks_[i].get()));
    }
  }

  BuildBackend();
}

ArrayController& MimdRaid::controller() {
  MIMDRAID_CHECK(controller_ != nullptr);  // mirror backend only
  return *controller_;
}

EcController& MimdRaid::ec() {
  MIMDRAID_CHECK(ec_ != nullptr);  // erasure-coded backends only
  return *ec_;
}

const ArrayLayout& MimdRaid::layout() const {
  MIMDRAID_CHECK(layout_ != nullptr);  // mirror backend only
  return *layout_;
}

const EcLayout& MimdRaid::ec_layout() const {
  MIMDRAID_CHECK(ec_layout_ != nullptr);  // erasure-coded backends only
  return *ec_layout_;
}

void MimdRaid::BuildBackend() {
  std::vector<SimDisk*> disk_ptrs;
  std::vector<AccessPredictor*> pred_ptrs;
  for (size_t i = 0; i < disks_.size(); ++i) {
    disk_ptrs.push_back(disks_[i].get());
    pred_ptrs.push_back(predictors_[i].get());
  }
  const DriveSetOptions drives{
      .scheduler = options_.scheduler,
      .max_scan = options_.max_scan,
      .auditor = options_.auditor,
      .fault_injector = injector_.get(),
      .collector = options_.collector,
      .disk_error_fail_threshold = options_.disk_error_fail_threshold,
      .scrub_interval_us = options_.scrub_interval_us,
  };
  if (options_.backend == ArrayBackendKind::kMirror) {
    // Every slot maps through its own drive's layout; mixed generations get
    // capacity-weighted striping, identical drives exact round-robin.
    std::vector<const DiskLayout*> disk_layouts;
    disk_layouts.reserve(disks_.size());
    for (const auto& disk : disks_) {
      disk_layouts.push_back(&disk->layout());
    }
    layout_ = std::make_unique<ArrayLayout>(
        std::move(disk_layouts), options_.aspect,
        options_.stripe_unit_sectors, options_.dataset_sectors,
        options_.placement_mode);
    controller_ = std::make_unique<ArrayController>(
        &sim_, std::move(disk_ptrs), std::move(pred_ptrs), layout_.get(),
        ArrayControllerOptions{
            .drives = drives,
            .delayed_table_limit = options_.delayed_table_limit,
            .recalibration_interval_us = options_.recalibration_interval_us,
            .foreground_write_propagation =
                options_.foreground_write_propagation,
        });
    backend_ = controller_.get();
  } else {
    const uint32_t n = static_cast<uint32_t>(disks_.size());
    const uint32_t m =
        ParityShardsFor(options_.backend, options_.parity_shards);
    MIMDRAID_CHECK_GE(m, 1u);
    MIMDRAID_CHECK_GT(n, m);
    // The aspect supplies only the disk budget; replica dimensions are
    // meaningless under parity.
    MIMDRAID_CHECK_EQ(options_.aspect.dr, 1);
    MIMDRAID_CHECK_EQ(options_.aspect.dm, 1);
    const uint32_t k = n - m;
    const uint64_t unit = options_.stripe_unit_sectors;
    // m disks' worth of parity: size each drive so the k data shares cover
    // the dataset, rounded up to whole stripe units.
    const uint64_t per_data = (options_.dataset_sectors + k - 1) / k;
    const uint64_t per_disk = (per_data + unit - 1) / unit * unit;
    // The rotated layout stripes symmetrically, so the weakest drive bounds
    // every share.
    for (const auto& disk : disks_) {
      MIMDRAID_CHECK_LE(per_disk, disk->layout().num_data_sectors());
    }
    ec_layout_ = std::make_unique<EcLayout>(
        n, k, options_.stripe_unit_sectors, per_disk);
    ec_codec_ = std::make_unique<EcCodec>(k, m);
    ec_ = std::make_unique<EcController>(
        &sim_, std::move(disk_ptrs), std::move(pred_ptrs), ec_layout_.get(),
        ec_codec_.get(), drives);
    backend_ = ec_.get();
  }
  for (size_t i = 0; i < spare_disks_.size(); ++i) {
    backend_->AddSpare(spare_disks_[i].get(), spare_predictors_[i].get());
  }
}

void MimdRaid::Reshape(const ArrayAspect& aspect, SimDuration migration_us) {
  MIMDRAID_CHECK(options_.backend == ArrayBackendKind::kMirror);
  MIMDRAID_CHECK_EQ(static_cast<size_t>(aspect.TotalDisks()), disks_.size());
  MIMDRAID_CHECK_GE(migration_us, SimDuration(0));
  // Quiesce: all foreground work and background propagation must finish
  // before the old controller (and its callbacks) can be torn down.
  while (!controller_->Idle()) {
    MIMDRAID_CHECK(sim_.Step());
  }
  // Spares consumed by promotions live on inside the old controller's disk
  // set; reshaping a partially-failed array is unsupported.
  MIMDRAID_CHECK_EQ(controller_->spares_available(), spare_disks_.size());
  controller_.reset();
  backend_ = nullptr;
  sim_.RunUntil(sim_.Now() + migration_us);

  options_.aspect = aspect;
  BuildBackend();
}

SubmitFn MimdRaid::Submitter() {
  return [this](DiskOp op, uint64_t lba, uint32_t sectors, IoDoneFn done) {
    backend_->Submit(op, lba, sectors, std::move(done));
  };
}

}  // namespace mimdraid
