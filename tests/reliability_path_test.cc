// Reliability-path regressions on the real array stack: scrub lifecycle
// (StopScrub drains mid-flight work cleanly, StartScrub resumes the sweep),
// per-sweep coverage accounting, spare exhaustion (degraded service forever,
// with controller recovery stats reconciling against injector counters), and
// idle-gated scrub admission — the scrubber yields to delayed-propagation
// backlog.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/core/mimd_raid.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

constexpr uint64_t kDataset = 2400;
constexpr uint64_t kStepBudget = 30'000'000;

struct RigConfig {
  FaultInjectorOptions fault;
  uint32_t hot_spares = 0;
  SimDuration scrub_interval_us;
  bool foreground_write_propagation = false;
  uint64_t seed = 5;
};

// Same small four-drive rig the conformance suite uses: the mirror runs a
// 2x1x2 replica layout, RAID-5 a 4-disk rotating-parity group.
std::unique_ptr<MimdRaid> MakeArray(ArrayBackendKind kind,
                                    const RigConfig& rig) {
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
  }
  options.scheduler = SchedulerKind::kSatf;
  options.dataset_sectors = kDataset;
  options.stripe_unit_sectors = 16;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = rig.seed;
  options.enable_fault_injection = true;
  options.fault = rig.fault;
  options.fault.seed = rig.seed;
  options.hot_spares = rig.hot_spares;
  options.scrub_interval_us = rig.scrub_interval_us;
  options.foreground_write_propagation = rig.foreground_write_propagation;
  return std::make_unique<MimdRaid>(options);
}

// Submits `ops` random operations and pumps until every one completed
// exactly once; counts kOk completions.
int RunMix(MimdRaid* array, int ops, uint64_t seed, double read_frac) {
  Rng rng(seed);
  int done = 0;
  int ok = 0;
  for (int i = 0; i < ops; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba =
        rng.UniformU64(array->backend().dataset_sectors() - sectors);
    const DiskOp op =
        rng.Bernoulli(read_frac) ? DiskOp::kRead : DiskOp::kWrite;
    array->backend().Submit(op, lba, sectors, [&](const IoResult& r) {
      ++done;
      if (r.status == IoStatus::kOk) ++ok;
    });
  }
  uint64_t steps = 0;
  while (done < ops) {
    EXPECT_TRUE(array->sim().Step()) << "simulator ran dry";
    if (++steps >= kStepBudget) {
      ADD_FAILURE() << "completions lost";
      break;
    }
  }
  return ok;
}

// Steps until the backend is fully idle (scrubber still armed unless the
// caller stopped it).
void DrainTo(MimdRaid* array, bool stop_scrub) {
  if (stop_scrub) array->backend().StopScrub();
  uint64_t steps = 0;
  while ((!array->backend().Idle() || array->backend().RebuildInProgress()) &&
         array->sim().Step()) {
    ASSERT_LT(++steps, kStepBudget) << "drain wedged";
  }
}

// Pumps until the completed-sweep counter reaches `target` (scrubber must be
// running).
void PumpUntilSweeps(MimdRaid* array, uint64_t target) {
  uint64_t steps = 0;
  while (array->backend().fault_stats().scrub_sweeps_completed < target) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry before sweep "
                                     << target;
    ASSERT_LT(++steps, kStepBudget) << "sweep " << target << " never finished";
  }
}

class ReliabilityPath : public ::testing::TestWithParam<ArrayBackendKind> {};

// ---------------------------------------------------------------------------
// Scrub lifecycle: StopScrub with a sweep mid-flight drains cleanly (the
// in-flight scrub reads complete, AuditQuiescent holds), and StartScrub
// resumes sweeping afterwards.
// ---------------------------------------------------------------------------

TEST_P(ReliabilityPath, StopScrubMidFlightDrainsAndStartScrubResumes) {
  RigConfig rig;
  rig.scrub_interval_us = SimDuration(5'000);
  auto array = MakeArray(GetParam(), rig);

  // Let the sweeper get airborne: pump until scrub work is actually in
  // flight (the backend reports non-idle with no foreground ops queued).
  uint64_t steps = 0;
  while (array->backend().Idle() ||
         array->backend().fault_stats().scrub_reads == 0) {
    ASSERT_TRUE(array->sim().Step());
    ASSERT_LT(++steps, kStepBudget) << "scrubber never started";
  }
  ASSERT_FALSE(array->backend().Idle());

  // Stop mid-flight. The timer disarms but the issued reads drain normally;
  // quiescence must be clean, not wedged or leaky.
  array->backend().StopScrub();
  DrainTo(array.get(), /*stop_scrub=*/false);
  ASSERT_TRUE(array->backend().Idle());
  array->backend().AuditQuiescent();
  const uint64_t reads_at_stop = array->backend().fault_stats().scrub_reads;
  EXPECT_GT(reads_at_stop, 0u);

  // Stopped means stopped: simulated time passes, no new scrub reads.
  array->sim().RunUntil(array->sim().Now() + SimDuration(200'000));
  EXPECT_EQ(array->backend().fault_stats().scrub_reads, reads_at_stop);

  // StartScrub re-arms and the sweep completes from where it left off.
  array->backend().StartScrub();
  PumpUntilSweeps(array.get(), 1);
  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_GT(fs.scrub_reads, reads_at_stop);
  EXPECT_GE(fs.scrub_sweeps_completed, 1u);
  EXPECT_DOUBLE_EQ(fs.scrub_last_sweep_coverage, 1.0);
  DrainTo(array.get(), /*stop_scrub=*/true);
  array->backend().AuditQuiescent();
}

// ---------------------------------------------------------------------------
// Coverage accounting: a healthy sweep covers everything; a sweep run with a
// failed slot reports partial coverage, and recovery restores 1.0.
// ---------------------------------------------------------------------------

TEST_P(ReliabilityPath, SweepCoverageDropsWithFailedSlotAndRecovers) {
  RigConfig rig;
  rig.scrub_interval_us = SimDuration(5'000);
  auto array = MakeArray(GetParam(), rig);

  PumpUntilSweeps(array.get(), 1);
  EXPECT_DOUBLE_EQ(array->backend().fault_stats().scrub_last_sweep_coverage,
                   1.0);
  const uint64_t healthy_sectors =
      array->backend().fault_stats().scrub_sectors_read;
  EXPECT_GT(healthy_sectors, 0u);

  // Lose a disk (FailDisk requires the slot quiescent, so stop the sweeper
  // first); the next completed sweep skips its media and says so.
  DrainTo(array.get(), /*stop_scrub=*/true);
  ASSERT_TRUE(array->backend().FailDisk(SlotId(0)));
  array->backend().StartScrub();
  const uint64_t sweeps_before =
      array->backend().fault_stats().scrub_sweeps_completed;
  PumpUntilSweeps(array.get(), sweeps_before + 2);
  const double degraded =
      array->backend().fault_stats().scrub_last_sweep_coverage;
  EXPECT_LT(degraded, 1.0) << "sweep over a failed slot claimed full coverage";
  EXPECT_GT(degraded, 0.0);

  // Rebuild the slot (quiesce the scrubber first — Rebuild requires the
  // drives idle); coverage returns to full on a later sweep.
  DrainTo(array.get(), /*stop_scrub=*/true);
  bool rebuilt = false;
  array->backend().Rebuild(SlotId(0),
                           [&](const IoResult&) { rebuilt = true; });
  uint64_t steps = 0;
  while (!rebuilt) {
    ASSERT_TRUE(array->sim().Step());
    ASSERT_LT(++steps, kStepBudget) << "rebuild wedged";
  }
  array->backend().StartScrub();
  const uint64_t sweeps_after_rebuild =
      array->backend().fault_stats().scrub_sweeps_completed;
  PumpUntilSweeps(array.get(), sweeps_after_rebuild + 2);
  EXPECT_DOUBLE_EQ(array->backend().fault_stats().scrub_last_sweep_coverage,
                   1.0);
  DrainTo(array.get(), /*stop_scrub=*/true);
  array->backend().AuditQuiescent();
}

// ---------------------------------------------------------------------------
// Spare exhaustion: once the pool is empty a further tolerated failure just
// leaves the array degraded — reads keep serving indefinitely — and the
// controller's recovery counters reconcile against the injector's.
// ---------------------------------------------------------------------------

TEST_P(ReliabilityPath, SpareExhaustionServesDegradedIndefinitely) {
  RigConfig rig;
  rig.hot_spares = 1;
  auto array = MakeArray(GetParam(), rig);
  ASSERT_EQ(array->backend().spares_available(), 1u);

  // First fail-stop: detected on access, the one spare is promoted into the
  // slot and auto-rebuilt.
  array->fault_injector()->FailStop(0);
  EXPECT_EQ(RunMix(array.get(), 150, 53, 0.0), 150);
  DrainTo(array.get(), /*stop_scrub=*/true);
  EXPECT_EQ(array->backend().spares_available(), 0u);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  ASSERT_EQ(array->backend().fault_stats().spares_promoted, 1u);
  ASSERT_EQ(array->backend().fault_stats().spare_rebuilds_completed, 1u);

  // Second fail-stop on the same slot: pool exhausted, so the slot stays
  // failed and the array serves degraded — wave after wave, no data loss.
  array->fault_injector()->FailStop(0);
  for (int wave = 0; wave < 3; ++wave) {
    EXPECT_EQ(RunMix(array.get(), 100, 100 + wave, 0.8), 100)
        << "degraded wave " << wave << " lost operations";
    DrainTo(array.get(), /*stop_scrub=*/true);
  }
  EXPECT_TRUE(array->backend().IsFailed(SlotId(0)))
      << "no spare left: the slot must stay failed";
  EXPECT_EQ(array->backend().spares_available(), 0u);
  EXPECT_FALSE(array->backend().RebuildInProgress());

  // Reconciliation: everything the injector rejected was seen and absorbed
  // by the recovery machinery (redirected reads / degraded reconstruction),
  // never surfaced and never dropped.
  const FaultRecoveryStats& fs = array->backend().fault_stats();
  const FaultInjectorCounters& fic = array->fault_injector()->counters();
  EXPECT_GT(fic.failstop_rejections, 0u);
  EXPECT_GT(fs.disk_failed_seen, 0u);
  EXPECT_LE(fs.disk_failed_seen, fic.failstop_rejections)
      << "controller saw more dead-disk completions than the injector issued";
  EXPECT_EQ(fs.spares_promoted, 1u) << "exhausted pool must not re-promote";
  EXPECT_EQ(fs.unrecoverable_completions, 0u)
      << "single tolerated failure surfaced as data loss";
  if (GetParam() == ArrayBackendKind::kMirror) {
    EXPECT_GT(fs.failovers, 0u);
  } else {
    EXPECT_GT(fs.reconstructions, 0u);
  }
  array->backend().AuditQuiescent();
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ReliabilityPath,
    ::testing::Values(ArrayBackendKind::kMirror, ArrayBackendKind::kRaid5),
    [](const ::testing::TestParamInfo<ArrayBackendKind>& param) {
      return param.param == ArrayBackendKind::kMirror ? "Mirror" : "Raid5";
    });

// ---------------------------------------------------------------------------
// Scrub admission: the mirror's delayed-propagation backlog keeps the engine
// non-quiet after writes complete (replicas still propagating from NVRAM),
// and the idle-gated scrubber defers its sweep until the backlog drains. The
// observable is *when* the first scrub read lands relative to the drain.
// ---------------------------------------------------------------------------

struct GatingTimes {
  SimTime first_scrub_read;
  SimTime backlog_drained;
};

GatingTimes MeasureGating() {
  RigConfig rig;
  rig.scrub_interval_us = SimDuration(2'000);
  auto array = MakeArray(ArrayBackendKind::kMirror, rig);

  // A burst of distinct-LBA writes: each completes into NVRAM after its
  // first replica lands, leaving the remaining replicas to propagate in the
  // background — a long-lived backlog of delayed work.
  int done = 0;
  constexpr int kWrites = 150;
  for (int i = 0; i < kWrites; ++i) {
    const uint64_t lba = (i * 16) % (kDataset - 8);
    array->backend().Submit(DiskOp::kWrite, lba, 8,
                            [&](const IoResult&) { ++done; });
  }
  uint64_t steps = 0;
  while (done < kWrites) {
    EXPECT_TRUE(array->sim().Step());
    if (++steps >= kStepBudget) {
      ADD_FAILURE() << "writes never completed";
      break;
    }
  }
  EXPECT_GT(array->controller().DelayedBacklog(), 0u)
      << "no delayed backlog: the gating scenario collapsed";

  // Step until both milestones are recorded: the first scrub read and the
  // backlog reaching zero.
  GatingTimes t;
  bool scrubbed = false;
  bool drained = false;
  steps = 0;
  while (!(scrubbed && drained)) {
    if (!scrubbed && array->backend().fault_stats().scrub_reads > 0) {
      scrubbed = true;
      t.first_scrub_read = array->sim().Now();
    }
    if (!drained && array->controller().DelayedBacklog() == 0) {
      drained = true;
      t.backlog_drained = array->sim().Now();
    }
    if (scrubbed && drained) break;
    EXPECT_TRUE(array->sim().Step()) << "simulator ran dry mid-measurement";
    if (++steps >= kStepBudget) {
      ADD_FAILURE() << "milestones never reached (scrubbed=" << scrubbed
                    << " drained=" << drained << ")";
      break;
    }
  }
  array->backend().StopScrub();
  return t;
}

TEST(ScrubAdmission, IdleGatedYieldsToDelayedBacklog) {
  const GatingTimes gated = MeasureGating();
  // LiveDrivesQuiet() is false while any delayed-propagation queue is
  // non-empty, so the first scrub read waits for the drain.
  EXPECT_GE(gated.first_scrub_read, gated.backlog_drained)
      << "idle-gated scrub ran while delayed writes were still propagating";
}

}  // namespace
}  // namespace mimdraid
