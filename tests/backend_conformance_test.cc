// Backend conformance: the observable contract every ArrayBackend
// implementation must honor, run against every backend kind (mirror; RAID-5,
// the erasure controller at m = 1; and the general k+m erasure controller —
// here a 2+2 group, so redundancy exhaustion needs m+1 = 3 failures) over
// the shared DriveSet engine. Rigs come off the MimdRaid backend-selection
// path — the same assembly the benches and experiments use — with the
// invariant auditor attached throughout, so every scenario also
// proves fault conservation (no failed sub-op is silently dropped).
//
// The contract under test:
//   * healthy mixed I/O completes kOk, exactly once per op;
//   * a tolerated explicit failure degrades service but never surfaces an
//     intermediate status;
//   * Rebuild() restores redundancy (IsFailed clears, service recovers);
//   * rebuilds run one slot at a time: a slot rebuilt while another pass
//     runs stays failed until that pass reports done;
//   * transient faults are absorbed by each policy's retry and failover;
//   * redundancy exhaustion surfaces kUnrecoverable — never a hang, never an
//     intermediate status;
//   * a detected fail-stop promotes a hot spare and auto-rebuilds onto it;
//     without a spare, Rebuild() onto a replacement drive restores the slot;
//   * the idle scrub sweeper finds and repairs planted latent errors;
//   * ExportStats publishes fault.* plus a backend-specific prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/mimd_raid.h"
#include "src/obs/stats_registry.h"
#include "src/obs/trace_collector.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

constexpr uint64_t kDataset = 2400;
constexpr uint64_t kStepBudget = 30'000'000;

struct RigConfig {
  bool faults = false;
  FaultInjectorOptions fault;
  uint32_t disk_error_fail_threshold = 0;
  uint32_t hot_spares = 0;
  SimDuration scrub_interval_us;
  InvariantAuditor* auditor = nullptr;
  uint64_t seed = 5;
};

// Four small test drives for any backend: the mirror runs them as two
// mirrored columns (2x1x2), RAID-5 as a 3+1 rotating-parity group, and
// kErasure as a 2+2 code (two-fault tolerant).
std::unique_ptr<MimdRaid> MakeArray(ArrayBackendKind kind,
                                    const RigConfig& rig = {}) {
  MimdRaidOptions options;
  options.backend = kind;
  if (kind == ArrayBackendKind::kMirror) {
    options.aspect.ds = 2;
    options.aspect.dr = 1;
    options.aspect.dm = 2;
  } else {
    options.aspect.ds = 4;
    options.aspect.dr = 1;
    options.aspect.dm = 1;
    options.parity_shards = 2;  // kErasure only; kRaid5 fixes m at 1
  }
  options.scheduler = SchedulerKind::kSatf;
  options.dataset_sectors = kDataset;
  options.stripe_unit_sectors = 16;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = rig.seed;
  options.enable_fault_injection = rig.faults;
  options.fault = rig.fault;
  options.fault.seed = rig.seed;
  options.disk_error_fail_threshold = rig.disk_error_fail_threshold;
  options.hot_spares = rig.hot_spares;
  options.scrub_interval_us = rig.scrub_interval_us;
  options.auditor = rig.auditor;
  return std::make_unique<MimdRaid>(options);
}

struct IoTally {
  int done = 0;
  int ok = 0;
  int unrecoverable = 0;
  int intermediate = 0;  // must stay zero: the contract's core clause
};

// Submits `ops` random operations and pumps the simulator until all have
// completed exactly once.
void RunMix(MimdRaid* array, int ops, uint64_t seed, double read_frac,
            IoTally* tally) {
  Rng rng(seed);
  std::vector<int> completions(ops, 0);
  for (int i = 0; i < ops; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba =
        rng.UniformU64(array->backend().dataset_sectors() - sectors);
    const DiskOp op =
        rng.Bernoulli(read_frac) ? DiskOp::kRead : DiskOp::kWrite;
    array->backend().Submit(op, lba, sectors, [tally, &completions,
                                               i](const IoResult& r) {
      ++completions[i];
      ++tally->done;
      switch (r.status) {
        case IoStatus::kOk:
          ++tally->ok;
          break;
        case IoStatus::kUnrecoverable:
          ++tally->unrecoverable;
          break;
        default:
          ++tally->intermediate;
          ADD_FAILURE() << "op " << i << " surfaced intermediate status "
                        << IoStatusName(r.status);
      }
    });
    if (rng.Bernoulli(0.3)) {
      array->sim().RunUntil(array->sim().Now() +
                            SimDuration(static_cast<int64_t>(rng.UniformU64(10'000))));
    }
  }
  uint64_t steps = 0;
  while (tally->done < ops) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, kStepBudget) << "completions lost";
  }
  for (int i = 0; i < ops; ++i) {
    ASSERT_EQ(completions[i], 1) << "op " << i;
  }
}

// Stops the scrubber and drains the backend to full quiescence.
void DrainAll(MimdRaid* array) {
  array->backend().StopScrub();
  uint64_t steps = 0;
  while ((!array->backend().Idle() || array->backend().RebuildInProgress()) &&
         array->sim().Step()) {
    ASSERT_LT(++steps, kStepBudget) << "drain wedged";
  }
  EXPECT_TRUE(array->backend().Idle());
}

// Plants a persistent latent sector error under logical `lba` on one
// redundancy-covered copy (the other copies keep the data recoverable).
void PlantLatentError(MimdRaid* array, uint64_t lba) {
  FaultInjector* injector = array->fault_injector();
  ASSERT_NE(injector, nullptr);
  if (array->backend_kind() == ArrayBackendKind::kMirror) {
    for (const ArrayFragment& f : array->layout().Map(lba, 1)) {
      injector->InjectLatentError(f.replicas[0].disk, f.replicas[0].lba);
    }
  } else {
    for (const EcFragment& f : array->ec_layout().Map(lba, 1)) {
      injector->InjectLatentError(f.data_disk, f.disk_lba);
    }
  }
}

class BackendConformance
    : public ::testing::TestWithParam<ArrayBackendKind> {};

TEST_P(BackendConformance, HealthyMixedIoCompletesOk) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  auto array = MakeArray(GetParam(), rig);
  IoTally tally;
  RunMix(array.get(), 200, 11, 0.6, &tally);
  DrainAll(array.get());
  EXPECT_EQ(tally.ok, 200);
  EXPECT_EQ(tally.unrecoverable, 0);
  EXPECT_EQ(tally.intermediate, 0);
  EXPECT_EQ(array->backend().fault_stats().TotalFaultsSeen(), 0u);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.checks_run(), 0u);
}

TEST_P(BackendConformance, DegradedIoSurvivesToleratedFailure) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  auto array = MakeArray(GetParam(), rig);
  ASSERT_TRUE(array->backend().FailDisk(SlotId(0)));
  EXPECT_TRUE(array->backend().IsFailed(SlotId(0)));
  IoTally tally;
  RunMix(array.get(), 150, 23, 0.6, &tally);
  DrainAll(array.get());
  EXPECT_EQ(tally.ok, 150) << "single tolerated failure must not lose data";
  EXPECT_EQ(tally.intermediate, 0);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, RebuildRestoresRedundancy) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  auto array = MakeArray(GetParam(), rig);
  // Dirty the array, lose a disk, serve degraded, then rebuild in place.
  IoTally warm;
  RunMix(array.get(), 60, 31, 0.4, &warm);
  DrainAll(array.get());
  ASSERT_TRUE(array->backend().FailDisk(SlotId(0)));
  IoTally degraded;
  RunMix(array.get(), 60, 37, 0.6, &degraded);
  DrainAll(array.get());

  bool rebuilt = false;
  IoResult rebuild_result;
  array->backend().Rebuild(SlotId(0), [&](const IoResult& r) {
    rebuild_result = r;
    rebuilt = true;
  });
  uint64_t steps = 0;
  while (!rebuilt) {
    ASSERT_TRUE(array->sim().Step());
    ASSERT_LT(++steps, kStepBudget) << "rebuild wedged";
  }
  EXPECT_EQ(rebuild_result.status, IoStatus::kOk);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  DrainAll(array.get());
  EXPECT_FALSE(array->backend().RebuildInProgress());

  IoTally healthy;
  RunMix(array.get(), 60, 41, 0.6, &healthy);
  DrainAll(array.get());
  EXPECT_EQ(healthy.ok, 60);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, TransientFaultsAreAbsorbedByRetry) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.fault.transient_error_prob = 0.05;
  rig.fault.timeout_prob = 0.01;
  rig.fault.watchdog_timeout_us = SimDuration(50'000);
  auto array = MakeArray(GetParam(), rig);
  IoTally tally;
  RunMix(array.get(), 200, 43, 0.6, &tally);
  DrainAll(array.get());
  EXPECT_EQ(tally.intermediate, 0);
  EXPECT_EQ(tally.done, 200);
  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_GT(fs.TotalFaultsSeen(), 0u) << "fault mix injected nothing";
  EXPECT_GT(fs.retries_issued, 0u);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, RedundancyExhaustionSurfacesUnrecoverable) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  auto array = MakeArray(GetParam(), rig);
  // Take out enough disks to exhaust the redundancy: for the mirror, both
  // copies of logical block 0's column; for RAID-5, any two disks; for the
  // 2+2 erasure group, any m+1 = 3 disks (m failures are still tolerated).
  std::vector<uint32_t> victims = {0, 1};
  if (GetParam() == ArrayBackendKind::kMirror) {
    const std::vector<ArrayFragment> frags = array->layout().Map(0, 1);
    ASSERT_GE(frags[0].replicas.size(), 2u);
    victims = {frags[0].replicas[0].disk, frags[0].replicas[1].disk};
  } else if (GetParam() == ArrayBackendKind::kErasure) {
    victims = {0, 1, 2};
  }
  for (const uint32_t v : victims) {
    ASSERT_TRUE(array->backend().FailDisk(SlotId(v)));
  }
  IoTally tally;
  RunMix(array.get(), 120, 47, 0.6, &tally);
  DrainAll(array.get());
  EXPECT_EQ(tally.intermediate, 0)
      << "exhausted redundancy must surface kUnrecoverable, nothing else";
  EXPECT_GT(tally.unrecoverable, 0) << "two shared-redundancy disks lost "
                                       "but nothing surfaced as data loss";
  EXPECT_GT(array->backend().fault_stats().unrecoverable_completions, 0u);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, DetectedFailStopPromotesSpareAndRebuilds) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.hot_spares = 1;
  auto array = MakeArray(GetParam(), rig);
  EXPECT_EQ(array->backend().spares_available(), 1u);
  array->fault_injector()->FailStop(0);
  // Writes across the whole dataset guarantee the dead drive is touched, so
  // the engine detects the fail-stop, promotes the spare into the slot, and
  // kicks off the automatic rebuild.
  IoTally tally;
  RunMix(array.get(), 150, 53, 0.0, &tally);
  DrainAll(array.get());
  EXPECT_EQ(tally.intermediate, 0);
  EXPECT_EQ(tally.ok, 150) << "spare-backed failure must not lose writes";
  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_EQ(fs.spares_promoted, 1u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 1u);
  EXPECT_EQ(array->backend().spares_available(), 0u);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)))
      << "auto-rebuild onto the promoted spare must clear the failed flag";
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, RebuildAfterDetectedFailStopWithoutSpare) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  auto array = MakeArray(GetParam(), rig);
  array->fault_injector()->FailStop(0);
  IoTally tally;
  RunMix(array.get(), 150, 53, 0.0, &tally);
  DrainAll(array.get());
  EXPECT_EQ(tally.intermediate, 0);
  ASSERT_TRUE(array->backend().IsFailed(SlotId(0)))
      << "no spare: the detected fail-stop must leave the slot failed";

  // A replacement drive goes into the slot: the rebuild must write to it,
  // not to the fail-stopped drive it replaced.
  bool rebuilt = false;
  IoResult rebuild_result;
  array->backend().Rebuild(SlotId(0), [&](const IoResult& r) {
    rebuild_result = r;
    rebuilt = true;
  });
  uint64_t steps = 0;
  while (!rebuilt) {
    ASSERT_TRUE(array->sim().Step());
    ASSERT_LT(++steps, kStepBudget) << "rebuild wedged";
  }
  EXPECT_EQ(rebuild_result.status, IoStatus::kOk)
      << IoStatusName(rebuild_result.status);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  DrainAll(array.get());
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, RebuildsRunOneSlotAtATime) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  auto array = MakeArray(GetParam(), rig);
  // The second slot shares no mirror column with slot 0 (the 2x1x2 mirror
  // pairs slots 0-1 and 2-3); any other slot will do for the parity codes.
  const SlotId first(0);
  const SlotId second(GetParam() == ArrayBackendKind::kMirror ? 2 : 1);
  std::vector<uint32_t> order;
  std::vector<IoStatus> statuses;
  const auto record = [&](SlotId slot) {
    return [&order, &statuses, slot](const IoResult& r) {
      order.push_back(slot.value());
      statuses.push_back(r.status);
    };
  };
  ASSERT_TRUE(array->backend().FailDisk(first));
  array->backend().Rebuild(first, record(first));
  ASSERT_TRUE(array->backend().FailDisk(second));
  array->backend().Rebuild(second, record(second));

  // The second slot stays failed (served degraded) until the first pass
  // reports done.
  bool second_started_early = false;
  uint64_t steps = 0;
  while (order.empty()) {
    second_started_early |= !array->backend().IsFailed(second);
    ASSERT_TRUE(array->sim().Step());
    ASSERT_LT(++steps, kStepBudget) << "first rebuild wedged";
  }
  EXPECT_FALSE(second_started_early);
  DrainAll(array.get());
  EXPECT_EQ(order, (std::vector<uint32_t>{first.value(), second.value()}));
  ASSERT_EQ(statuses.size(), 2u);
  // RAID-5 (m = 1) cannot decode slot 0's rows while slot 1 is also down,
  // so only its first pass may lose rows.
  if (GetParam() == ArrayBackendKind::kRaid5) {
    EXPECT_EQ(statuses[0], IoStatus::kUnrecoverable);
  } else {
    EXPECT_EQ(statuses[0], IoStatus::kOk);
  }
  EXPECT_EQ(statuses[1], IoStatus::kOk);
  EXPECT_FALSE(array->backend().IsFailed(first));
  EXPECT_FALSE(array->backend().IsFailed(second));
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, IdleScrubRepairsPlantedLatentErrors) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.scrub_interval_us = SimDuration(20'000);
  auto array = MakeArray(GetParam(), rig);
  PlantLatentError(array.get(), 100);
  PlantLatentError(array.get(), 800);
  PlantLatentError(array.get(), 1600);
  // No foreground work at all: only the idle sweeper touches the drives.
  array->sim().RunUntil(array->sim().Now() + SimDuration(4'000'000));
  DrainAll(array.get());
  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_GT(fs.scrub_reads, 0u) << "scrub sweeper never ran";
  EXPECT_GE(fs.scrub_repairs, 3u) << "planted latent errors not repaired";
  EXPECT_GT(fs.scrub_sectors_read, 0u) << "scrub read accounting missing";
  ASSERT_GE(fs.scrub_sweeps_completed, 1u);
  // Every disk was live for the whole sweep: full coverage.
  EXPECT_DOUBLE_EQ(fs.scrub_last_sweep_coverage, 1.0);
  // The repairs rewrote the bad copies: a fresh sweep finds nothing new.
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.checks_run(), 0u);
}

TEST_P(BackendConformance, IdleScrubReadOnFailStoppedDriveWithSparePooled) {
  // The scrub read that detects the fail-stop promotes the spare and starts
  // its rebuild, which clears the slot's failed flag before the read's own
  // hook returns: the read failed on a live slot and may not be abandoned.
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.hot_spares = 1;
  rig.scrub_interval_us = SimDuration(20'000);
  auto array = MakeArray(GetParam(), rig);
  array->sim().RunUntil(array->sim().Now() + SimDuration(200'000));
  ASSERT_GT(array->backend().fault_stats().scrub_reads, 0u);
  array->fault_injector()->FailStop(0);
  array->sim().RunUntil(array->sim().Now() + SimDuration(200'000));
  DrainAll(array.get());
  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_EQ(fs.disk_failed_seen, 1u) << "no scrub read detected the fail-stop";
  EXPECT_EQ(fs.spares_promoted, 1u);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, ExportStatsPublishesFaultAndBackendCounters) {
  auto array = MakeArray(GetParam());
  IoTally tally;
  RunMix(array.get(), 80, 59, 0.5, &tally);
  DrainAll(array.get());
  StatsRegistry registry;
  array->backend().ExportStats(&registry);
  // The policy-independent fault block is always present...
  EXPECT_TRUE(registry.Contains("fault.retries_issued"));
  EXPECT_TRUE(registry.Contains("fault.failovers"));
  EXPECT_TRUE(registry.Contains("fault.scrub_reads"));
  EXPECT_TRUE(registry.Contains("fault.scrub_sectors_read"));
  EXPECT_TRUE(registry.Contains("fault.scrub_last_sweep_coverage"));
  EXPECT_TRUE(registry.Contains("fault.spares_promoted"));
  // ...plus the backend's own prefix with real traffic behind it.
  const std::string prefix = GetParam() == ArrayBackendKind::kMirror
                                 ? "array.reads_completed"
                                 : "ec.reads_completed";
  EXPECT_TRUE(registry.Contains(prefix));
  EXPECT_GT(registry.Get(prefix), 0.0);
}

// ---------------------------------------------------------------------------
// Heterogeneous fleets: the same contract on mixed drive generations.
// ---------------------------------------------------------------------------

// Fast/slow halves of the array: the first half of the slots run the test
// geometry at its native 10000 RPM, the second half a 7200 RPM generation.
// `spare_generations` appends per-spare generation assignments (rig.hot_spares
// must match its size).
std::unique_ptr<MimdRaid> MakeMixedRpmArray(
    ArrayBackendKind kind, const RigConfig& rig,
    const std::vector<uint32_t>& spare_generations = {},
    TraceCollector* collector = nullptr) {
  MimdRaidOptions options;
  options.backend = kind;
  if (kind == ArrayBackendKind::kMirror) {
    options.aspect.ds = 2;
    options.aspect.dr = 1;
    options.aspect.dm = 2;
  } else {
    options.aspect.ds = 4;
    options.aspect.dr = 1;
    options.aspect.dm = 1;
    options.parity_shards = 2;  // kErasure only; kRaid5 fixes m at 1
  }
  options.scheduler = SchedulerKind::kSatf;
  options.dataset_sectors = kDataset;
  options.stripe_unit_sectors = 16;
  options.seed = rig.seed;
  options.enable_fault_injection = rig.faults;
  options.fault = rig.fault;
  options.fault.seed = rig.seed;
  options.disk_error_fail_threshold = rig.disk_error_fail_threshold;
  options.hot_spares = rig.hot_spares;
  options.scrub_interval_us = rig.scrub_interval_us;
  options.auditor = rig.auditor;
  options.collector = collector;

  DriveParams fast;
  fast.name = "fast10k";
  fast.geometry = MakeTestGeometry();
  fast.profile = MakeTestSeekProfile();
  DriveParams slow = fast;
  slow.name = "slow7200";
  slow.geometry.rpm = 7200;
  // A drive generation too small to cover the array's used span: 4
  // cylinders of the test zone hold fewer sectors than any slot uses.
  DriveParams tiny = fast;
  tiny.name = "tiny";
  tiny.geometry.num_cylinders = 4;
  tiny.geometry.zones = {tiny.geometry.zones[0]};
  options.fleet.generations = {fast, slow, tiny};
  const uint32_t array_slots =
      static_cast<uint32_t>(options.aspect.TotalDisks());
  for (uint32_t i = 0; i < array_slots; ++i) {
    options.fleet.slot_generation.push_back(i < array_slots / 2 ? 0u : 1u);
  }
  EXPECT_EQ(spare_generations.size(), static_cast<size_t>(rig.hot_spares));
  for (const uint32_t gen : spare_generations) {
    options.fleet.slot_generation.push_back(gen);
  }
  return std::make_unique<MimdRaid>(options);
}

TEST_P(BackendConformance, MixedRpmFleetKeepsContractAndPhaseIdentity) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.scrub_interval_us = SimDuration(20'000);
  TraceCollector collector;
  auto array = MakeMixedRpmArray(GetParam(), rig, {}, &collector);

  // The halves really spin at different speeds.
  const uint32_t n = static_cast<uint32_t>(array->num_disks());
  EXPECT_EQ(array->disk(0).layout().geometry().rpm, 10000u);
  EXPECT_EQ(array->disk(n - 1).layout().geometry().rpm, 7200u);

  // Healthy mixed I/O, then a latent error for the scrubber.
  IoTally healthy;
  RunMix(array.get(), 150, 67, 0.6, &healthy);
  DrainAll(array.get());
  EXPECT_EQ(healthy.ok, 150);

  // Failover: lose a fast disk, keep serving from the slow redundancy.
  ASSERT_TRUE(array->backend().FailDisk(SlotId(0)));
  IoTally degraded;
  RunMix(array.get(), 100, 71, 0.6, &degraded);
  DrainAll(array.get());
  EXPECT_EQ(degraded.ok, 100)
      << "mixed-RPM redundancy must cover a single failure";

  // Rebuild restores the failed slot.
  bool rebuilt = false;
  IoResult rebuild_result;
  array->backend().Rebuild(SlotId(0), [&](const IoResult& r) {
    rebuild_result = r;
    rebuilt = true;
  });
  uint64_t steps = 0;
  while (!rebuilt) {
    ASSERT_TRUE(array->sim().Step());
    ASSERT_LT(++steps, kStepBudget) << "mixed-RPM rebuild wedged";
  }
  EXPECT_EQ(rebuild_result.status, IoStatus::kOk);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  DrainAll(array.get());

  // Scrub coverage: a planted latent error is swept up on the mixed fleet
  // and the completed sweep covers every live replica. (DrainAll stopped
  // the sweeper, so restart it for this phase.)
  PlantLatentError(array.get(), 800);
  array->backend().StartScrub();
  array->sim().RunUntil(array->sim().Now() + SimDuration(4'000'000));
  DrainAll(array.get());
  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_GE(fs.scrub_repairs, 1u) << "latent error survived the sweeper";
  ASSERT_GE(fs.scrub_sweeps_completed, 1u);
  EXPECT_DOUBLE_EQ(fs.scrub_last_sweep_coverage, 1.0);

  // Phase attribution stays exact per request even though slow-half legs
  // rotate at a different speed: the breakdown is defined to sum to the
  // end-to-end latency to double rounding.
  ASSERT_GE(collector.requests().size(), 250u);
  EXPECT_EQ(collector.open_requests(), 0u);
  for (const RequestRecord& r : collector.requests()) {
    EXPECT_NEAR(r.phases.SumUs(), r.EndToEndUs(), 1e-6)
        << "request " << r.id << " lost time in the phase breakdown";
  }

  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.checks_run(), 0u);
}

TEST_P(BackendConformance, IncompatibleSpareIsRejectedNotSilentlyAccepted) {
  // Spare pool: a drive too small for any slot's used span first, a
  // compatible one second. Promotion must skip (and count) the small one
  // and take the compatible one — the old behavior silently promoted
  // whatever was first.
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.hot_spares = 2;
  auto array =
      MakeMixedRpmArray(GetParam(), rig, {/*tiny=*/2u, /*fast=*/0u});
  EXPECT_EQ(array->backend().spares_available(), 2u);

  array->fault_injector()->FailStop(0);
  IoTally tally;
  RunMix(array.get(), 150, 73, 0.0, &tally);
  DrainAll(array.get());
  EXPECT_EQ(tally.intermediate, 0);
  EXPECT_EQ(tally.ok, 150);

  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_EQ(fs.spare_rejected, 1u)
      << "undersized spare was not rejected at promotion";
  EXPECT_EQ(fs.spares_promoted, 1u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 1u);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  // The incompatible spare stays pooled for a slot it might fit.
  EXPECT_EQ(array->backend().spares_available(), 1u);

  StatsRegistry registry;
  array->backend().ExportStats(&registry);
  EXPECT_EQ(registry.Get("fault.spare_rejected"), 1.0);

  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, RepeatedPromotionsCountIncompatibleSpareOnce) {
  // Regression: an incompatible pooled spare used to bump fault.spare_rejected
  // on *every* promotion attempt that skipped it. Two sequential failures
  // both walk past the same undersized spare; it must count exactly once.
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.hot_spares = 3;
  auto array = MakeMixedRpmArray(GetParam(), rig,
                                 {/*tiny=*/2u, /*fast=*/0u, /*fast=*/0u});
  EXPECT_EQ(array->backend().spares_available(), 3u);

  // Pick two victims that never share redundancy: disk 0 plus any disk
  // outside block 0's replica set (for the parity codes any distinct pair
  // works, and failures are sequential anyway).
  const uint32_t first = 0;
  uint32_t second = static_cast<uint32_t>(array->num_disks()) - 1;
  if (GetParam() == ArrayBackendKind::kMirror) {
    const std::vector<ArrayFragment> frags = array->layout().Map(0, 1);
    for (uint32_t d = 1; d < array->num_disks(); ++d) {
      bool shares = false;
      for (const auto& replica : frags[0].replicas) {
        shares |= replica.disk == d;
      }
      if (!shares) {
        second = d;
        break;
      }
    }
  }

  array->fault_injector()->FailStop(first);
  IoTally tally_a;
  RunMix(array.get(), 120, 83, 0.0, &tally_a);
  DrainAll(array.get());
  EXPECT_EQ(array->backend().fault_stats().spare_rejected, 1u);

  array->fault_injector()->FailStop(second);
  IoTally tally_b;
  RunMix(array.get(), 120, 89, 0.0, &tally_b);
  DrainAll(array.get());

  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_EQ(fs.spare_rejected, 1u)
      << "the same pooled spare was re-counted at the second promotion";
  EXPECT_EQ(fs.spares_promoted, 2u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 2u);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(first)));
  EXPECT_FALSE(array->backend().IsFailed(SlotId(second)));
  // Only the incompatible spare remains pooled.
  EXPECT_EQ(array->backend().spares_available(), 1u);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST_P(BackendConformance, OnlyIncompatibleSparesLeavesSlotFailed) {
  InvariantAuditor auditor;
  RigConfig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.hot_spares = 1;
  auto array = MakeMixedRpmArray(GetParam(), rig, {/*tiny=*/2u});
  array->fault_injector()->FailStop(0);
  IoTally tally;
  RunMix(array.get(), 120, 79, 0.0, &tally);
  DrainAll(array.get());
  EXPECT_EQ(tally.ok, 120) << "redundancy must still cover the failure";

  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_GE(fs.spare_rejected, 1u);
  EXPECT_EQ(fs.spares_promoted, 0u);
  EXPECT_TRUE(array->backend().IsFailed(SlotId(0)))
      << "slot cannot recover without a compatible spare";
  EXPECT_EQ(array->backend().spares_available(), 1u);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, BackendConformance,
    ::testing::Values(ArrayBackendKind::kMirror, ArrayBackendKind::kRaid5,
                      ArrayBackendKind::kErasure),
    [](const ::testing::TestParamInfo<ArrayBackendKind>& param) {
      switch (param.param) {
        case ArrayBackendKind::kMirror:
          return "Mirror";
        case ArrayBackendKind::kRaid5:
          return "Raid5";
        case ArrayBackendKind::kErasure:
          return "Erasure";
      }
      return "Unknown";
    });

// The terminal check also covers the policy's per-entry tables (mirror
// fragments, EC commands): claimed early, with a read still in flight, it
// names them; after the drain it passes.
TEST_P(BackendConformance, QuiescenceAuditCoversPolicyEntryTables) {
  InvariantAuditor auditor;
  std::vector<std::string> messages;
  auditor.set_failure_handler(
      [&](const std::string& m) { messages.push_back(m); });
  RigConfig rig;
  rig.auditor = &auditor;
  auto array = MakeArray(GetParam(), rig);
  bool done = false;
  array->backend().Submit(DiskOp::kRead, 0, 8,
                          [&](const IoResult&) { done = true; });
  array->backend().AuditQuiescent();
  EXPECT_NE(std::find_if(messages.begin(), messages.end(),
                         [](const std::string& m) {
                           return m.find("policy records") !=
                                  std::string::npos;
                         }),
            messages.end())
      << "an in-flight read's policy record passed the terminal check";

  DrainAll(array.get());
  EXPECT_TRUE(done);
  messages.clear();
  array->backend().AuditQuiescent();
  EXPECT_EQ(messages, std::vector<std::string>{});
}

// ---------------------------------------------------------------------------
// Corruption injection: the negative control for the auditor wiring. A
// healthy RAID-5 run passes the terminal check; a deliberately orphaned
// fault record (a failed sub-op the policy never resolves — the bug class
// the fault-conservation invariant exists to catch) must trip it.
// ---------------------------------------------------------------------------

TEST(BackendConformance, AuditorCatchesOrphanedFaultRecordOnRaid5) {
  InvariantAuditor auditor;
  std::vector<std::string> messages;
  auditor.set_failure_handler(
      [&](const std::string& m) { messages.push_back(m); });
  RigConfig rig;
  rig.auditor = &auditor;
  auto array = MakeArray(ArrayBackendKind::kRaid5, rig);
  IoTally tally;
  RunMix(array.get(), 60, 61, 0.6, &tally);
  DrainAll(array.get());
  // Positive control: the real run is clean.
  array->backend().AuditQuiescent();
  ASSERT_EQ(auditor.violations(), 0u);

  // Seeded corruption: report a disk sub-op failure that no recovery path
  // ever resolves, then claim quiescence.
  auditor.OnIoFault(/*disk=*/2, /*entry_id=*/0xDEADBEEF);
  array->backend().AuditQuiescent();
  EXPECT_GE(auditor.violations(), 1u)
      << "orphaned fault record passed the terminal consistency check";
  ASSERT_FALSE(messages.empty());
  EXPECT_NE(messages.back().find("fault"), std::string::npos)
      << "violation message does not identify the fault leak: "
      << messages.back();
}

}  // namespace
}  // namespace mimdraid
