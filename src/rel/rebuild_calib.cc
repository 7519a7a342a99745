#include "src/rel/rebuild_calib.h"

#include <memory>

#include "src/core/mimd_raid.h"
#include "src/util/check.h"

namespace mimdraid {
namespace rel {

namespace {

// Microseconds of simulated time per hour of fleet time.
constexpr double kUsPerHour = 3.6e9;

// The embedded rig: small enough to rebuild in milliseconds of wall clock,
// real enough to exercise the actual row-by-row rebuild path (seeks,
// rotation, the engine's dispatch). Same shape as the conformance rigs.
MimdRaidOptions CalibrationRig(ArrayBackendKind kind, uint64_t seed) {
  MimdRaidOptions options;
  options.backend = kind;
  if (kind == ArrayBackendKind::kMirror) {
    options.aspect.ds = 2;
    options.aspect.dr = 1;
    options.aspect.dm = 2;
  } else {
    // Parity backends: four columns (RAID-5 3+1; erasure k+m from
    // options.parity_shards, 2+2 at the default).
    options.aspect.ds = 4;
    options.aspect.dr = 1;
    options.aspect.dm = 1;
  }
  options.scheduler = SchedulerKind::kSatf;
  options.dataset_sectors = 2400;
  options.stripe_unit_sectors = 16;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = seed;
  return options;
}

}  // namespace

double RebuildCalibration::HoursForCapacity(uint64_t capacity_sectors) const {
  MIMDRAID_CHECK_GT(measured_sectors, 0u);
  MIMDRAID_CHECK_GT(measured_duration_us, 0.0);
  return measured_duration_us *
         (static_cast<double>(capacity_sectors) /
          static_cast<double>(measured_sectors)) /
         kUsPerHour;
}

RebuildCalibration CalibrateRebuild(ArrayBackendKind kind, uint64_t seed) {
  MimdRaid array(CalibrationRig(kind, seed));
  array.backend().StopScrub();
  MIMDRAID_CHECK(array.backend().FailDisk(SlotId(0)));

  const SimTime start = array.sim().Now();
  bool rebuilt = false;
  IoResult result;
  array.backend().Rebuild(SlotId(0), [&](const IoResult& r) {
    result = r;
    rebuilt = true;
  });
  while (!rebuilt) {
    MIMDRAID_CHECK(array.sim().Step());
  }
  MIMDRAID_CHECK(result.status == IoStatus::kOk);

  RebuildCalibration calib;
  calib.measured_duration_us =
      static_cast<double>((result.completion_us - start).us());
  switch (kind) {
    case ArrayBackendKind::kMirror:
      calib.measured_sectors = array.layout().per_disk_sectors();
      break;
    case ArrayBackendKind::kRaid5:
    case ArrayBackendKind::kErasure:
      calib.measured_sectors =
          static_cast<uint64_t>(array.ec_layout().num_rows()) *
          array.ec_layout().stripe_unit_sectors();
      break;
  }
  return calib;
}

}  // namespace rel
}  // namespace mimdraid
