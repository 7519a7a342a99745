// Seeded chaos soak: a randomized fault mix (latent sector errors, transient
// errors, timeouts, explicit fail-stops) against the mirrored array, RAID-5
// (the erasure controller at m = 1), and a 4+2 erasure array, with the
// runtime invariant auditor attached. Every submitted operation must
// complete exactly once with a terminal status (kOk or kUnrecoverable —
// never an intermediate fault status), the array must drain to a quiescent
// state that passes the auditor's terminal consistency check, and the whole
// run must be bit-for-bit reproducible for a given seed. The default seeds'
// digests are pinned (kPinnedDigests), so a behaviour change shows up as a
// diff even when both runs of a seed agree with each other.
//
// All rigs come off the MimdRaid backend-selection path and run the same
// DriveSet engine underneath; the soaks here are the parity check that every
// policy drives the shared retry/auto-fail/spare-promotion/scrub machinery
// equally hard. The erasure soak additionally pushes to m concurrent
// fail-stops (service must stay degraded-correct) and then past m, where
// affected reads must surface kUnrecoverable without wedging.
//
// Environment knobs (CI):
//   MIMDRAID_CHAOS_SEED     — run a single seed instead of the fixed three.
//   MIMDRAID_CHAOS_BACKEND  — "mirror", "raid5", or "ec": run only that
//                             backend's soaks (CI matrixes chaos across
//                             backends).
//   MIMDRAID_CHAOS_SUMMARY  — append per-seed fault/recovery counter summaries
//                             to this file (uploaded as a CI artifact).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/mimd_raid.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

constexpr uint64_t kDefaultSeeds[] = {101, 202, 303};

std::vector<uint64_t> ChaosSeeds() {
  if (const char* env = std::getenv("MIMDRAID_CHAOS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {std::begin(kDefaultSeeds), std::end(kDefaultSeeds)};
}

// True when MIMDRAID_CHAOS_BACKEND is unset or names `backend`.
bool BackendSelected(const char* backend) {
  const char* env = std::getenv("MIMDRAID_CHAOS_BACKEND");
  return env == nullptr || std::string(env) == backend;
}

void AppendSummary(const std::string& header, const FaultRecoveryStats& fstats,
                   const FaultInjectorCounters& counters) {
  const char* path = std::getenv("MIMDRAID_CHAOS_SUMMARY");
  if (path == nullptr) {
    return;
  }
  std::ofstream out(path, std::ios::app);
  out << "=== " << header << " ===\n"
      << fstats.Summary()
      << "injected: latent_planted=" << counters.latent_errors_planted
      << " transient=" << counters.transient_errors
      << " timeouts=" << counters.timeouts
      << " media_error_reads=" << counters.media_error_reads
      << " failstop_rejections=" << counters.failstop_rejections
      << " write_repairs=" << counters.write_repairs << "\n";
}

// Compact digest of one run, for determinism checks: same seed, same digest.
struct ChaosDigest {
  uint64_t completion_time_sum = 0;
  uint64_t ok = 0;
  uint64_t unrecoverable = 0;
  uint64_t faults_seen = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;

  bool operator==(const ChaosDigest& o) const {
    return completion_time_sum == o.completion_time_sum && ok == o.ok &&
           unrecoverable == o.unrecoverable && faults_seen == o.faults_seen &&
           retries == o.retries && failovers == o.failovers;
  }
};

// Digests recorded for the default seeds. Refactors of the engine or the
// policies must reproduce them exactly; a behaviour change that moves one is
// deliberate and re-records the table. A seed outside the table (set through
// MIMDRAID_CHAOS_SEED) is not pinned.
struct PinnedDigest {
  const char* backend;
  uint64_t seed;
  ChaosDigest digest;
};

const PinnedDigest kPinnedDigests[] = {
    {"mirror", 101, {575059079, 595, 5, 18, 9, 11}},
    {"mirror", 202, {618864216, 599, 1, 15, 7, 7}},
    {"mirror", 303, {536870592, 598, 2, 19, 7, 10}},
    {"raid5", 101, {241828616, 211, 189, 18, 13, 31}},
    {"raid5", 202, {294284435, 356, 44, 17, 12, 15}},
    {"raid5", 303, {273255684, 343, 57, 15, 10, 23}},
    {"ec", 101, {319898827, 323, 77, 27, 19, 26}},
    {"ec", 202, {356147619, 311, 89, 24, 17, 23}},
    {"ec", 303, {261682689, 199, 201, 20, 14, 31}},
};

void ExpectPinnedDigest(const std::string& backend, uint64_t seed,
                        const ChaosDigest& got) {
  for (const PinnedDigest& pin : kPinnedDigests) {
    if (backend != pin.backend || seed != pin.seed) {
      continue;
    }
    EXPECT_EQ(got.completion_time_sum, pin.digest.completion_time_sum);
    EXPECT_EQ(got.ok, pin.digest.ok);
    EXPECT_EQ(got.unrecoverable, pin.digest.unrecoverable);
    EXPECT_EQ(got.faults_seen, pin.digest.faults_seen);
    EXPECT_EQ(got.retries, pin.digest.retries);
    EXPECT_EQ(got.failovers, pin.digest.failovers);
    return;
  }
}

// Chaos rig shared by both backends: small test drives, the full fault mix,
// auditor, error-threshold auto-fail, one hot spare, and the scrub sweeper.
MimdRaidOptions ChaosOptions(ArrayBackendKind backend, uint64_t seed,
                             InvariantAuditor* auditor) {
  MimdRaidOptions options;
  options.backend = backend;
  options.dataset_sectors = 2400;
  options.stripe_unit_sectors = 16;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = seed;
  options.enable_fault_injection = true;
  options.fault.seed = seed;
  options.fault.watchdog_timeout_us = SimDuration(50'000);
  options.disk_error_fail_threshold = 6;
  options.scrub_interval_us = SimDuration(100'000);
  options.hot_spares = 1;
  options.auditor = auditor;
  return options;
}

// ---------------------------------------------------------------------------
// Mirrored-array chaos.
// ---------------------------------------------------------------------------

void RunMirrorChaos(uint64_t seed, bool write_summary, ChaosDigest* out) {
  constexpr uint64_t kDataset = 2400;
  constexpr int kOps = 600;
  constexpr uint64_t kStepBudget = 30'000'000;

  InvariantAuditor auditor;
  MimdRaidOptions options =
      ChaosOptions(ArrayBackendKind::kMirror, seed, &auditor);
  options.aspect.ds = 2;
  options.aspect.dr = 1;
  options.aspect.dm = 2;
  options.fault.latent_error_prob = 0.002;
  options.fault.transient_error_prob = 0.004;
  options.fault.timeout_prob = 0.002;
  MimdRaid array(options);
  Simulator& sim = array.sim();
  ArrayController& controller = array.controller();
  FaultInjector& injector = *array.fault_injector();

  // Seed a few guaranteed latent errors so the scrubber and failover paths
  // have deterministic work even if the stochastic mix comes up quiet.
  Rng rng(seed);
  for (int i = 0; i < 4; ++i) {
    const uint64_t lba = rng.UniformU64(kDataset - 4);
    for (const ArrayFragment& f : array.layout().Map(lba, 1)) {
      injector.InjectLatentError(f.replicas[0].disk, f.replicas[0].lba);
    }
  }

  std::vector<int> completions(kOps, 0);
  ChaosDigest digest;
  int done = 0;
  for (int i = 0; i < kOps; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba = rng.UniformU64(kDataset - sectors);
    const DiskOp op = rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite;
    controller.Submit(op, lba, sectors, [&, i](const IoResult& r) {
      ++completions[i];
      ++done;
      EXPECT_TRUE(r.status == IoStatus::kOk ||
                  r.status == IoStatus::kUnrecoverable)
          << "op " << i << " surfaced intermediate status "
          << IoStatusName(r.status);
      digest.completion_time_sum += static_cast<uint64_t>(r.completion_us.us());
      if (r.status == IoStatus::kOk) {
        ++digest.ok;
      } else {
        ++digest.unrecoverable;
      }
    });
    if (rng.Bernoulli(0.3)) {
      sim.RunUntil(sim.Now() +
                   SimDuration(static_cast<int64_t>(rng.UniformU64(20'000))));
    }
  }

  uint64_t steps = 0;
  while (done < kOps) {
    ASSERT_TRUE(sim.Step()) << "simulator ran dry with ops outstanding";
    ASSERT_LT(++steps, kStepBudget) << "soak wedged: completions lost";
  }
  // Every op completed exactly once — no lost or duplicated completions.
  for (int i = 0; i < kOps; ++i) {
    ASSERT_EQ(completions[i], 1) << "op " << i;
  }

  // Let the idle array scrub for a while (latent-error repair), then stop the
  // sweeper and drain everything: foreground, propagations, spare rebuild.
  sim.RunUntil(sim.Now() + SimDuration(3'000'000));
  controller.StopScrub();
  steps = 0;
  while ((!controller.Idle() || controller.RebuildInProgress()) &&
         sim.Step()) {
    ASSERT_LT(++steps, kStepBudget) << "drain wedged";
  }
  EXPECT_TRUE(controller.Idle());
  EXPECT_EQ(controller.TotalQueued(), 0u);
  EXPECT_EQ(controller.DelayedBacklog(), 0u);
  controller.AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.checks_run(), 0u);

  const FaultRecoveryStats& fs = controller.fault_stats();
  EXPECT_GT(fs.TotalFaultsSeen(), 0u) << "chaos mix injected nothing";
  EXPECT_GT(fs.scrub_reads, 0u);
  digest.faults_seen = fs.TotalFaultsSeen();
  digest.retries = fs.retries_issued;
  digest.failovers = fs.failovers;

  if (write_summary) {
    AppendSummary("chaos seed " + std::to_string(seed) + " (mirror 2x1x2+1)",
                  fs, injector.counters());
  }
  *out = digest;
}

TEST(ChaosSoak, MirroredArraySurvivesRandomFaultMix) {
  if (!BackendSelected("mirror")) {
    GTEST_SKIP() << "MIMDRAID_CHAOS_BACKEND selects another backend";
  }
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosDigest digest;
    RunMirrorChaos(seed, /*write_summary=*/true, &digest);
    ExpectPinnedDigest("mirror", seed, digest);
  }
}

TEST(ChaosSoak, MirrorRunIsDeterministicForSeed) {
  if (!BackendSelected("mirror")) {
    GTEST_SKIP() << "MIMDRAID_CHAOS_BACKEND selects another backend";
  }
  const uint64_t seed = ChaosSeeds().front();
  ChaosDigest a;
  ChaosDigest b;
  RunMirrorChaos(seed, /*write_summary=*/false, &a);
  RunMirrorChaos(seed, /*write_summary=*/false, &b);
  EXPECT_TRUE(a == b) << "same seed produced different runs";
}

// ---------------------------------------------------------------------------
// RAID-5 chaos (kRaid5: the erasure controller over 5 disks with m = 1):
// stochastic faults plus a mid-run fail-stop, with the same
// engine feature set as the mirror soak — auditor, error-threshold
// auto-fail, a hot spare (promotion + automatic rebuild), and the scrub
// sweeper.
// ---------------------------------------------------------------------------

void RunRaid5Chaos(uint64_t seed, bool write_summary, ChaosDigest* out) {
  constexpr uint32_t kDisks = 5;
  constexpr int kOps = 400;
  constexpr uint64_t kStepBudget = 30'000'000;

  InvariantAuditor auditor;
  MimdRaidOptions options =
      ChaosOptions(ArrayBackendKind::kRaid5, seed, &auditor);
  options.aspect.ds = kDisks;
  options.aspect.dr = 1;
  options.aspect.dm = 1;
  // 2000 usable sectors per disk once the parity share is carved out.
  options.dataset_sectors = 8000;
  options.fault.latent_error_prob = 0.001;
  options.fault.transient_error_prob = 0.003;
  options.fault.timeout_prob = 0.002;
  MimdRaid array(options);
  Simulator& sim = array.sim();
  EcController& controller = array.ec();
  const EcLayout& layout = array.ec_layout();
  FaultInjector& injector = *array.fault_injector();

  Rng rng(seed * 31 + 7);
  const uint32_t victim = static_cast<uint32_t>(rng.UniformU64(kDisks));
  const int failstop_at = kOps / 3;

  // Guaranteed latent errors, as in the mirror soak, so the scrubber's
  // repair-rewrite path has deterministic work.
  for (int i = 0; i < 4; ++i) {
    const uint64_t lba = rng.UniformU64(layout.data_capacity_sectors() - 4);
    for (const EcFragment& f : layout.Map(lba, 1)) {
      injector.InjectLatentError(f.data_disk, f.disk_lba);
    }
  }

  std::vector<int> completions(kOps, 0);
  ChaosDigest digest;
  int done = 0;
  for (int i = 0; i < kOps; ++i) {
    if (i == failstop_at) {
      injector.FailStop(victim);  // detected on the next access
    }
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba =
        rng.UniformU64(layout.data_capacity_sectors() - sectors);
    const DiskOp op = rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite;
    controller.Submit(op, lba, sectors, [&, i](const IoResult& r) {
      ++completions[i];
      ++done;
      EXPECT_TRUE(r.status == IoStatus::kOk ||
                  r.status == IoStatus::kUnrecoverable)
          << "op " << i << " surfaced intermediate status "
          << IoStatusName(r.status);
      digest.completion_time_sum += static_cast<uint64_t>(r.completion_us.us());
      if (r.status == IoStatus::kOk) {
        ++digest.ok;
      } else {
        ++digest.unrecoverable;
      }
    });
    if (rng.Bernoulli(0.3)) {
      sim.RunUntil(sim.Now() +
                   SimDuration(static_cast<int64_t>(rng.UniformU64(20'000))));
    }
  }

  uint64_t steps = 0;
  while (done < kOps) {
    ASSERT_TRUE(sim.Step()) << "simulator ran dry with ops outstanding";
    ASSERT_LT(++steps, kStepBudget) << "soak wedged: completions lost";
  }
  for (int i = 0; i < kOps; ++i) {
    ASSERT_EQ(completions[i], 1) << "op " << i;
  }

  // Idle scrub window (latent-error repair), then stop the sweeper and drain
  // everything: in-flight scrub reads, spare rebuild, deferred recovery.
  sim.RunUntil(sim.Now() + SimDuration(3'000'000));
  controller.StopScrub();
  steps = 0;
  while (!controller.Idle() && sim.Step()) {
    ASSERT_LT(++steps, kStepBudget) << "drain wedged";
  }
  EXPECT_TRUE(controller.Idle());

  // The detected fail-stop normally consumes the hot spare (promotion +
  // automatic rebuild clears the failed flag). If the spare went to an
  // earlier threshold auto-fail, rebuild the victim in place — kOk when
  // every row reconstructed, kUnrecoverable when rows were lost to the
  // stochastic mix; either way it must terminate.
  if (controller.IsFailed(SlotId(victim))) {
    bool rebuilt = false;
    IoResult rebuild_result;
    controller.Rebuild(SlotId(victim), [&](const IoResult& r) {
      rebuild_result = r;
      rebuilt = true;
    });
    steps = 0;
    while (!rebuilt) {
      ASSERT_TRUE(sim.Step());
      ASSERT_LT(++steps, kStepBudget) << "rebuild wedged";
    }
    EXPECT_TRUE(rebuild_result.status == IoStatus::kOk ||
                rebuild_result.status == IoStatus::kUnrecoverable ||
                rebuild_result.status == IoStatus::kDiskFailed);
    steps = 0;
    while (!controller.Idle() && sim.Step()) {
      ASSERT_LT(++steps, kStepBudget);
    }
  }

  controller.AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.checks_run(), 0u);

  const FaultRecoveryStats& fs = controller.fault_stats();
  EXPECT_GT(fs.TotalFaultsSeen(), 0u) << "chaos mix injected nothing";
  EXPECT_GT(fs.scrub_reads, 0u);
  digest.faults_seen = fs.TotalFaultsSeen();
  digest.retries = fs.retries_issued;
  digest.failovers = fs.failovers;

  if (write_summary) {
    AppendSummary("chaos seed " + std::to_string(seed) + " (raid5 5-disk+1)",
                  fs, injector.counters());
  }
  *out = digest;
}

TEST(ChaosSoak, Raid5SurvivesFaultMixWithMidRunFailStop) {
  if (!BackendSelected("raid5")) {
    GTEST_SKIP() << "MIMDRAID_CHAOS_BACKEND selects another backend";
  }
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosDigest digest;
    RunRaid5Chaos(seed, /*write_summary=*/true, &digest);
    ExpectPinnedDigest("raid5", seed, digest);
  }
}

TEST(ChaosSoak, Raid5RunIsDeterministicForSeed) {
  if (!BackendSelected("raid5")) {
    GTEST_SKIP() << "MIMDRAID_CHAOS_BACKEND selects another backend";
  }
  const uint64_t seed = ChaosSeeds().front();
  ChaosDigest a;
  ChaosDigest b;
  RunRaid5Chaos(seed, /*write_summary=*/false, &a);
  RunRaid5Chaos(seed, /*write_summary=*/false, &b);
  EXPECT_TRUE(a == b) << "same seed produced different runs";
}

// ---------------------------------------------------------------------------
// Erasure (4+2) chaos: the stochastic mix plus TWO staggered mid-run
// fail-stops — the code's full fault budget held concurrently while service
// continues — with one hot spare, so one slot rebuilds and the other is
// served degraded through decode sets to the end of the run. A final
// explicit escalation past m proves reads through lost columns surface
// kUnrecoverable terminally instead of wedging.
// ---------------------------------------------------------------------------

void RunErasureChaos(uint64_t seed, bool write_summary, ChaosDigest* out) {
  constexpr uint32_t kDisks = 6;
  constexpr uint32_t kParityShards = 2;
  constexpr int kOps = 400;
  constexpr uint64_t kStepBudget = 30'000'000;

  InvariantAuditor auditor;
  MimdRaidOptions options =
      ChaosOptions(ArrayBackendKind::kErasure, seed, &auditor);
  options.aspect.ds = kDisks;
  options.aspect.dr = 1;
  options.aspect.dm = 1;
  options.parity_shards = kParityShards;
  // 2000 usable sectors per disk once the two parity shares are carved out.
  options.dataset_sectors = 8000;
  options.fault.latent_error_prob = 0.001;
  options.fault.transient_error_prob = 0.003;
  options.fault.timeout_prob = 0.002;
  MimdRaid array(options);
  Simulator& sim = array.sim();
  EcController& controller = array.ec();
  const EcLayout& layout = array.ec_layout();
  FaultInjector& injector = *array.fault_injector();

  Rng rng(seed * 37 + 11);
  const uint32_t victim_a = static_cast<uint32_t>(rng.UniformU64(kDisks));
  const uint32_t victim_b =
      (victim_a + 1 + static_cast<uint32_t>(rng.UniformU64(kDisks - 1))) %
      kDisks;
  const int failstop_a_at = kOps / 4;
  const int failstop_b_at = kOps / 2;

  for (int i = 0; i < 4; ++i) {
    const uint64_t lba = rng.UniformU64(layout.data_capacity_sectors() - 4);
    for (const EcFragment& f : layout.Map(lba, 1)) {
      injector.InjectLatentError(f.data_disk, f.disk_lba);
    }
  }

  std::vector<int> completions(kOps, 0);
  ChaosDigest digest;
  int done = 0;
  for (int i = 0; i < kOps; ++i) {
    if (i == failstop_a_at) {
      injector.FailStop(victim_a);  // detected on the next access
    }
    if (i == failstop_b_at) {
      injector.FailStop(victim_b);  // second concurrent loss: still within m
    }
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba =
        rng.UniformU64(layout.data_capacity_sectors() - sectors);
    const DiskOp op = rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite;
    controller.Submit(op, lba, sectors, [&, i](const IoResult& r) {
      ++completions[i];
      ++done;
      EXPECT_TRUE(r.status == IoStatus::kOk ||
                  r.status == IoStatus::kUnrecoverable)
          << "op " << i << " surfaced intermediate status "
          << IoStatusName(r.status);
      digest.completion_time_sum += static_cast<uint64_t>(r.completion_us.us());
      if (r.status == IoStatus::kOk) {
        ++digest.ok;
      } else {
        ++digest.unrecoverable;
      }
    });
    if (rng.Bernoulli(0.3)) {
      sim.RunUntil(sim.Now() +
                   SimDuration(static_cast<int64_t>(rng.UniformU64(20'000))));
    }
  }

  uint64_t steps = 0;
  while (done < kOps) {
    ASSERT_TRUE(sim.Step()) << "simulator ran dry with ops outstanding";
    ASSERT_LT(++steps, kStepBudget) << "soak wedged: completions lost";
  }
  for (int i = 0; i < kOps; ++i) {
    ASSERT_EQ(completions[i], 1) << "op " << i;
  }

  // Idle scrub window, then stop the sweeper and drain everything: scrub
  // reads, the spare rebuild, queued rebuilds, deferred recovery.
  sim.RunUntil(sim.Now() + SimDuration(3'000'000));
  controller.StopScrub();
  steps = 0;
  while ((!controller.Idle() || controller.RebuildInProgress()) &&
         sim.Step()) {
    ASSERT_LT(++steps, kStepBudget) << "drain wedged";
  }
  EXPECT_TRUE(controller.Idle());

  // Escalate past the code's budget: fail live disks until m+1 slots are
  // concurrently down, then sweep reads across the dataset. Reads needing a
  // lost column must complete kUnrecoverable — terminally, without wedging.
  uint32_t failed_now = 0;
  for (uint32_t d = 0; d < kDisks; ++d) {
    failed_now += controller.IsFailed(SlotId(d)) ? 1u : 0u;
  }
  for (uint32_t d = 0; d < kDisks && failed_now <= kParityShards; ++d) {
    if (!controller.IsFailed(SlotId(d))) {
      ASSERT_TRUE(controller.FailDisk(SlotId(d)));
      ++failed_now;
    }
  }
  constexpr int kSweepOps = 80;
  int sweep_done = 0;
  int sweep_unrecoverable = 0;
  for (int i = 0; i < kSweepOps; ++i) {
    const uint64_t lba = (static_cast<uint64_t>(i) * 97) %
                         (layout.data_capacity_sectors() - 8);
    controller.Submit(DiskOp::kRead, lba, 8, [&](const IoResult& r) {
      ++sweep_done;
      EXPECT_TRUE(r.status == IoStatus::kOk ||
                  r.status == IoStatus::kUnrecoverable);
      sweep_unrecoverable += r.status == IoStatus::kUnrecoverable ? 1 : 0;
    });
  }
  steps = 0;
  while (sweep_done < kSweepOps) {
    ASSERT_TRUE(sim.Step()) << "simulator ran dry past the fault budget";
    ASSERT_LT(++steps, kStepBudget) << "beyond-m sweep wedged";
  }
  EXPECT_GT(sweep_unrecoverable, 0)
      << "m+1 concurrent losses surfaced no data loss";
  steps = 0;
  while (!controller.Idle() && sim.Step()) {
    ASSERT_LT(++steps, kStepBudget) << "final drain wedged";
  }

  controller.AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.checks_run(), 0u);

  const FaultRecoveryStats& fs = controller.fault_stats();
  EXPECT_GT(fs.TotalFaultsSeen(), 0u) << "chaos mix injected nothing";
  EXPECT_GT(fs.scrub_reads, 0u);
  digest.faults_seen = fs.TotalFaultsSeen();
  digest.retries = fs.retries_issued;
  digest.failovers = fs.failovers;

  if (write_summary) {
    AppendSummary("chaos seed " + std::to_string(seed) + " (ec 4+2+1)", fs,
                  injector.counters());
  }
  *out = digest;
}

TEST(ChaosSoak, ErasureSurvivesFaultMixWithTwoConcurrentFailStops) {
  if (!BackendSelected("ec")) {
    GTEST_SKIP() << "MIMDRAID_CHAOS_BACKEND selects another backend";
  }
  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ChaosDigest digest;
    RunErasureChaos(seed, /*write_summary=*/true, &digest);
    ExpectPinnedDigest("ec", seed, digest);
  }
}

TEST(ChaosSoak, ErasureRunIsDeterministicForSeed) {
  if (!BackendSelected("ec")) {
    GTEST_SKIP() << "MIMDRAID_CHAOS_BACKEND selects another backend";
  }
  const uint64_t seed = ChaosSeeds().front();
  ChaosDigest a;
  ChaosDigest b;
  RunErasureChaos(seed, /*write_summary=*/false, &a);
  RunErasureChaos(seed, /*write_summary=*/false, &b);
  EXPECT_TRUE(a == b) << "same seed produced different runs";
}

}  // namespace
}  // namespace mimdraid
