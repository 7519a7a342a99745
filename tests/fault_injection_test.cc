// End-to-end fault-injection tests: the injector's determinism, the disk's
// media-error / write-reallocation path (DiskLayout::AddBadSector), and the
// controllers' recovery machinery — retry with backoff, mirror failover,
// RAID-5 (the m = 1 erasure controller) degraded reconstruction with repair,
// error-threshold auto-failure, hot-spare promotion, and background
// scrubbing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/ec/ec_controller.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector in isolation.
// ---------------------------------------------------------------------------

TEST(FaultInjector, DeterministicForSeed) {
  FaultInjectorOptions opts;
  opts.seed = 77;
  opts.latent_error_prob = 0.01;
  opts.transient_error_prob = 0.02;
  opts.timeout_prob = 0.01;
  FaultInjector a(opts);
  FaultInjector b(opts);
  Rng access_rng(5);
  for (int i = 0; i < 3000; ++i) {
    const uint32_t disk = static_cast<uint32_t>(access_rng.UniformU64(3));
    const bool is_write = access_rng.Bernoulli(0.4);
    const uint64_t lba = access_rng.UniformU64(10'000);
    const FaultOutcome oa = a.OnAccess(disk, is_write, lba, 8);
    const FaultOutcome ob = b.OnAccess(disk, is_write, lba, 8);
    ASSERT_EQ(oa.status, ob.status) << "diverged at access " << i;
    ASSERT_EQ(oa.service_multiplier, ob.service_multiplier);
  }
  EXPECT_EQ(a.counters().transient_errors, b.counters().transient_errors);
  EXPECT_EQ(a.counters().timeouts, b.counters().timeouts);
  EXPECT_EQ(a.counters().latent_errors_planted,
            b.counters().latent_errors_planted);
}

TEST(FaultInjector, DistinctSeedsDiverge) {
  FaultInjectorOptions opts;
  opts.transient_error_prob = 0.05;
  opts.timeout_prob = 0.05;
  opts.seed = 1;
  FaultInjector a(opts);
  opts.seed = 2;
  FaultInjector b(opts);
  bool diverged = false;
  for (int i = 0; i < 5000 && !diverged; ++i) {
    diverged = a.OnAccess(0, false, 0, 1).status !=
               b.OnAccess(0, false, 0, 1).status;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjector, PerSlotStreamsIndependentOfFirstAccessOrder) {
  FaultInjectorOptions opts;
  opts.seed = 9;
  opts.transient_error_prob = 0.1;
  FaultInjector a(opts);
  FaultInjector b(opts);
  // Touch slots in opposite orders; the per-slot sequences must match anyway.
  (void)a.OnAccess(0, false, 0, 1);
  (void)a.OnAccess(1, false, 0, 1);
  (void)b.OnAccess(1, false, 0, 1);
  (void)b.OnAccess(0, false, 0, 1);
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(a.OnAccess(0, false, 0, 1).status,
              b.OnAccess(0, false, 0, 1).status);
    ASSERT_EQ(a.OnAccess(1, false, 0, 1).status,
              b.OnAccess(1, false, 0, 1).status);
  }
}

TEST(FaultInjector, ReplaceDiskClearsSlotFaultState) {
  FaultInjector injector(FaultInjectorOptions{});
  injector.FailStop(2);
  injector.InjectLatentError(2, 100);
  injector.InjectTransientErrors(2, 5);
  injector.SetFailSlow(2, 4.0);
  EXPECT_TRUE(injector.IsFailStopped(2));
  EXPECT_EQ(injector.LatentErrorCount(2), 1u);
  injector.ReplaceDisk(2);
  EXPECT_FALSE(injector.IsFailStopped(2));
  EXPECT_EQ(injector.LatentErrorCount(2), 0u);
  EXPECT_EQ(injector.OnAccess(2, false, 100, 1).status, IoStatus::kOk);
  EXPECT_EQ(injector.OnAccess(2, false, 0, 1).service_multiplier, 1.0);
}

TEST(FaultInjector, ReplaceDiskPreservesSlotStreamPosition) {
  // The contract fault_injector.h documents: replacing the drive in a slot
  // resets fault state but MUST NOT advance, rewind, or reseed the slot's
  // RNG — post-replacement draws match a run with no replacement at all.
  FaultInjectorOptions opts;
  opts.seed = 31;
  opts.transient_error_prob = 0.08;
  opts.lifetime.hazard = LifetimeHazard::kWeibull;
  opts.lifetime.weibull_shape = 1.5;
  opts.lifetime.weibull_scale_hours = 40'000.0;
  opts.lifetime.lse_rate_per_hour = 1.0e-4;
  FaultInjector replaced(opts);
  FaultInjector control(opts);
  // Burn an identical prefix on both: access verdicts and lifetime draws all
  // consume the slot stream.
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(replaced.OnAccess(3, false, i, 4).status,
              control.OnAccess(3, false, i, 4).status);
  }
  ASSERT_DOUBLE_EQ(replaced.DrawLifetimeHours(3), control.DrawLifetimeHours(3));
  // Dirty the slot, then promote a replacement into it on one injector only.
  replaced.InjectLatentError(3, 7);
  replaced.InjectTransientErrors(3, 2);
  replaced.FailStop(3);
  replaced.ReplaceDisk(3);
  // Every subsequent draw — lifetime, LSE gap, access verdict — must be the
  // value the slot would have produced had the promotion never happened.
  for (int i = 0; i < 200; ++i) {
    ASSERT_DOUBLE_EQ(replaced.DrawLifetimeHours(3), control.DrawLifetimeHours(3))
        << "lifetime draw " << i << " diverged after ReplaceDisk";
    ASSERT_DOUBLE_EQ(replaced.DrawLseGapHours(3), control.DrawLseGapHours(3))
        << "LSE gap draw " << i << " diverged after ReplaceDisk";
  }
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(replaced.OnAccess(3, false, 1000 + i, 4).status,
              control.OnAccess(3, false, 1000 + i, 4).status)
        << "access verdict " << i << " diverged after ReplaceDisk";
  }
  // Untouched slots are unaffected either way.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(replaced.OnAccess(1, false, i, 1).status,
              control.OnAccess(1, false, i, 1).status);
  }
}

// ---------------------------------------------------------------------------
// SimDisk media path: latent errors fail reads until a write reallocates the
// sector to spare space (DiskLayout::AddBadSector) and repairs the media.
// ---------------------------------------------------------------------------

struct DiskRig {
  DiskRig() : disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
                   DiskNoiseModel::None(), 11, 0.0) {
    disk.SetFaultInjector(&injector, SlotId(0));
  }

  DiskOpResult Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    DiskOpResult out;
    bool done = false;
    disk.Start(op, BlockAddr(lba), sectors, [&](const DiskOpResult& r) {
      out = r;
      done = true;
    });
    while (!done) {
      EXPECT_TRUE(sim.Step());
    }
    return out;
  }

  Simulator sim;
  FaultInjector injector{FaultInjectorOptions{}};
  SimDisk disk;
};

TEST(SimDiskFaults, LatentErrorPersistsUntilWriteReallocates) {
  DiskRig rig;
  rig.injector.InjectLatentError(0, 5);
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 8).status, IoStatus::kMediaError);
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 8).status, IoStatus::kMediaError);
  EXPECT_EQ(rig.injector.counters().media_error_reads, 2u);
  EXPECT_EQ(rig.disk.layout().num_remapped_sectors(), 0u);

  // The rewrite triggers firmware reallocation: the LBA moves to spare space
  // and the latent error is cleared.
  EXPECT_EQ(rig.Do(DiskOp::kWrite, 0, 8).status, IoStatus::kOk);
  EXPECT_EQ(rig.disk.layout().num_remapped_sectors(), 1u);
  EXPECT_TRUE(rig.disk.layout().IsRemapped(5));
  EXPECT_FALSE(rig.injector.HasLatentError(0, 5));
  EXPECT_EQ(rig.injector.counters().write_repairs, 1u);
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 8).status, IoStatus::kOk);
}

TEST(SimDiskFaults, RemappedSectorStaysAddressableAcrossLayout) {
  DiskRig rig;
  // Remap several sectors scattered through the address space, then verify
  // every LBA still resolves to a unique physical slot and reads fine.
  for (uint64_t lba : {0ull, 7ull, 63ull, 64ull, 200ull}) {
    rig.injector.InjectLatentError(0, lba);
  }
  EXPECT_EQ(rig.Do(DiskOp::kWrite, 0, 256).status, IoStatus::kOk);
  EXPECT_EQ(rig.disk.layout().num_remapped_sectors(), 5u);
  EXPECT_EQ(rig.injector.LatentErrorCount(0), 0u);
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 256).status, IoStatus::kOk);
}

TEST(SimDiskFaults, FailStopRejectsWithoutMechanicalWork) {
  DiskRig rig;
  rig.injector.FailStop(0);
  const DiskOpResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kDiskFailed);
  EXPECT_EQ(r.seek_us, 0.0);
  EXPECT_EQ(rig.injector.counters().failstop_rejections, 1u);
}

TEST(SimDiskFaults, TimeoutCompletesAtWatchdogDeadline) {
  FaultInjectorOptions opts;
  opts.timeout_prob = 1.0;
  opts.watchdog_timeout_us = SimDuration(123'000);
  Simulator sim;
  FaultInjector injector(opts);
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::None(), 3, 0.0);
  disk.SetFaultInjector(&injector, SlotId(0));
  DiskOpResult out;
  bool done = false;
  disk.Start(DiskOp::kRead, BlockAddr(0), 8, [&](const DiskOpResult& r) {
    out = r;
    done = true;
  });
  while (!done) {
    ASSERT_TRUE(sim.Step());
  }
  EXPECT_EQ(out.status, IoStatus::kTimeout);
  EXPECT_EQ(out.ServiceUs(), SimDuration(123'000));
}

// ---------------------------------------------------------------------------
// Mirrored-array recovery (ArrayController).
// ---------------------------------------------------------------------------

struct ArrayRig {
  ArrayRig(int ds, int dr, int dm, const FaultInjectorOptions& fopts,
           uint32_t fail_threshold = 0,
           SimDuration scrub_interval_us = SimDuration(0),
           uint32_t spares = 0, uint64_t dataset = 3000)
      : injector(fopts) {
    aspect.ds = ds;
    aspect.dr = dr;
    aspect.dm = dm;
    const int d = aspect.TotalDisks();
    for (int i = 0; i < d + static_cast<int>(spares); ++i) {
      disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), 61 + i, i * 777.0));
      preds.push_back(std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
      if (i < d) {
        dptr.push_back(disks.back().get());
        pptr.push_back(preds.back().get());
      }
    }
    layout = std::make_unique<ArrayLayout>(&disks[0]->layout(), aspect, 16,
                                           dataset);
    ArrayControllerOptions copts;
    copts.drives.fault_injector = &injector;
    copts.drives.disk_error_fail_threshold = fail_threshold;
    copts.drives.scrub_interval_us = scrub_interval_us;
    controller = std::make_unique<ArrayController>(&sim, dptr, pptr,
                                                   layout.get(), copts);
    for (uint32_t s = 0; s < spares; ++s) {
      controller->AddSpare(disks[d + s].get(), preds[d + s].get());
    }
  }

  IoResult Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    IoResult out;
    bool done = false;
    controller->Submit(op, lba, sectors, [&](const IoResult& r) {
      out = r;
      done = true;
    });
    while (!done) {
      EXPECT_TRUE(sim.Step());
    }
    return out;
  }

  void Drain() {
    controller->StopScrub();
    while ((!controller->Idle() || controller->RebuildInProgress()) &&
           sim.Step()) {
    }
  }

  // Plants a latent error at every physical sector disk `target` holds for
  // the logical range [0, span). Returns the number of LBAs planted.
  size_t PlantLatentEverywhere(uint32_t target, uint64_t span) {
    size_t planted = 0;
    for (uint64_t lba = 0; lba < span; lba += 16) {
      const uint32_t sectors =
          static_cast<uint32_t>(std::min<uint64_t>(16, span - lba));
      for (const ArrayFragment& f : layout->Map(lba, sectors)) {
        for (const ReplicaLocation& loc : f.replicas) {
          if (loc.disk != target) {
            continue;
          }
          for (uint32_t s = 0; s < f.sectors; ++s) {
            injector.InjectLatentError(target, loc.lba + s);
            ++planted;
          }
        }
      }
    }
    return planted;
  }

  Simulator sim;
  ArrayAspect aspect;
  FaultInjector injector;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> preds;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  std::unique_ptr<ArrayLayout> layout;
  std::unique_ptr<ArrayController> controller;
};

TEST(ArrayRecovery, TransientWriteErrorsRetryUntilTheyLand) {
  ArrayRig rig(1, 1, 1, FaultInjectorOptions{});
  rig.injector.InjectTransientErrors(0, 2);
  const IoResult r = rig.Do(DiskOp::kWrite, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);
  EXPECT_EQ(r.recovery_attempts, 2u);
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_EQ(fs.media_errors_seen, 2u);
  EXPECT_EQ(fs.retries_issued, 2u);
  EXPECT_EQ(fs.unrecoverable_completions, 0u);
  rig.Drain();
}

TEST(ArrayRecovery, FailedPropagationKeepsItsNvramRecordThroughBackoff) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{});
  const std::vector<ArrayFragment> frags = rig.layout->Map(0, 8);
  ASSERT_EQ(frags.size(), 1u);
  const ReplicaLocation target = frags[0].replicas[1];
  ASSERT_EQ(target.disk, 1u);
  rig.injector.InjectTransientErrors(1, 1);
  ASSERT_EQ(rig.Do(DiskOp::kWrite, 0, 8).status, IoStatus::kOk);
  // Step until the propagation to disk 1 has failed and its retry waits out
  // the backoff.
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  while (fs.retries_issued == 0) {
    ASSERT_TRUE(rig.sim.Step());
  }
  // A crash now must still find the propagation in NVRAM.
  const std::vector<NvramEntry> snapshot = rig.controller->nvram().Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].disk, 1u);
  EXPECT_EQ(snapshot[0].lba, target.lba);
  EXPECT_EQ(snapshot[0].sectors, 8u);
  rig.Drain();
  EXPECT_EQ(rig.controller->DelayedBacklog(), 0u);
  EXPECT_EQ(rig.controller->stats().delayed_writes_completed, 1u);
  EXPECT_EQ(fs.retries_issued, 1u);
  EXPECT_EQ(fs.propagations_abandoned, 0u);
}

TEST(ArrayRecovery, ReadTimeoutsRetryThenSurfaceUnrecoverable) {
  FaultInjectorOptions fopts;
  fopts.timeout_prob = 1.0;  // the drive hangs on every command
  ArrayRig rig(1, 1, 1, fopts);
  const IoResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kUnrecoverable);
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  // kMaxRecoveryAttempts = 3: initial try + 2 in-place retries, then the
  // single-copy failover finds no live replica and surfaces the loss.
  EXPECT_EQ(fs.timeouts_seen, 3u);
  EXPECT_EQ(fs.retries_issued, 2u);
  EXPECT_EQ(fs.failovers, 1u);
  EXPECT_EQ(fs.unrecoverable_completions, 1u);
  rig.Drain();
}

TEST(ArrayRecovery, MediaErrorFailsOverToMirrorAndRepairs) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{});
  const size_t planted = rig.PlantLatentEverywhere(0, 3000);
  ASSERT_GT(planted, 0u);

  Rng rng(13);
  for (int i = 0; i < 80; ++i) {
    const IoResult r = rig.Do(DiskOp::kRead, rng.UniformU64(3000 - 8), 8);
    EXPECT_EQ(r.status, IoStatus::kOk);  // the mirror always has a clean copy
  }
  rig.Drain();

  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.media_errors_seen, 0u);
  EXPECT_GT(fs.failovers, 0u);
  EXPECT_GT(fs.repairs_queued, 0u);
  // Repair rewrites reached the drive: latent errors cleared and the bad
  // sectors remapped to spare space.
  EXPECT_GT(rig.injector.counters().write_repairs, 0u);
  EXPECT_LT(rig.injector.LatentErrorCount(0), planted);
  EXPECT_GT(rig.disks[0]->layout().num_remapped_sectors(), 0u);
  EXPECT_FALSE(
      rig.controller->IsFailed(SlotId(0)));  // threshold 0: never auto-fail
}

TEST(ArrayRecovery, ConcurrentReadsSurviveInFlightRemap) {
  // Regression for the write-reallocation path: a burst of overlapping reads
  // is outstanding while repair writes remap the sectors under them. Nothing
  // may crash, every read completes, and the bad sectors end up remapped.
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{});
  const size_t planted = rig.PlantLatentEverywhere(0, 64);
  ASSERT_GT(planted, 0u);

  int done = 0;
  constexpr int kOps = 40;
  for (int i = 0; i < kOps; ++i) {
    rig.controller->Submit(DiskOp::kRead, (i * 8) % 56, 8,
                           [&](const IoResult& r) {
                             EXPECT_EQ(r.status, IoStatus::kOk);
                             ++done;
                           });
  }
  while (done < kOps) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_EQ(done, kOps);
  EXPECT_TRUE(rig.controller->Idle());
  if (rig.controller->fault_stats().media_errors_seen > 0) {
    EXPECT_GT(rig.disks[0]->layout().num_remapped_sectors(), 0u);
    EXPECT_GT(rig.injector.counters().write_repairs, 0u);
  }
}

TEST(ArrayRecovery, ErrorThresholdAutoFailsAndPromotesHotSpare) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/3,
               /*scrub_interval_us=*/SimDuration(0), /*spares=*/1,
               /*dataset=*/800);
  rig.PlantLatentEverywhere(0, 800);

  Rng rng(17);
  for (int i = 0; i < 120; ++i) {
    const IoResult r = rig.Do(DiskOp::kRead, rng.UniformU64(800 - 8), 8);
    EXPECT_EQ(r.status, IoStatus::kOk);
  }
  rig.Drain();

  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_EQ(fs.auto_disk_failures, 1u);
  EXPECT_EQ(fs.spares_promoted, 1u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 1u);
  EXPECT_EQ(rig.controller->spares_available(), 0u);
  // The promoted spare was rebuilt and put back in service.
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(0)));
  EXPECT_TRUE(rig.injector.IsFailStopped(0) == false);
  // Post-rebuild reads still all succeed.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rig.Do(DiskOp::kRead, rng.UniformU64(800 - 8), 8).status,
              IoStatus::kOk);
  }
  rig.Drain();
}

TEST(ArrayRecovery, FailStopDiskIsDetectedAndReplaced) {
  ArrayRig rig(2, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/0,
               /*scrub_interval_us=*/SimDuration(0), /*spares=*/1,
               /*dataset=*/1600);
  rig.injector.FailStop(1);

  Rng rng(19);
  for (int i = 0; i < 60; ++i) {
    const IoResult r = rig.Do(DiskOp::kRead, rng.UniformU64(1600 - 8), 8);
    EXPECT_EQ(r.status, IoStatus::kOk);
  }
  rig.Drain();

  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.disk_failed_seen, 0u);
  EXPECT_EQ(fs.auto_disk_failures, 1u);
  EXPECT_EQ(fs.spares_promoted, 1u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 1u);
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(1)));
}

TEST(ArrayRecovery, ScrubberFindsAndRepairsLatentErrors) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/0,
               /*scrub_interval_us=*/SimDuration(20'000), /*spares=*/0,
               /*dataset=*/640);
  for (uint64_t lba : {3ull, 100ull, 401ull}) {
    for (const ArrayFragment& f : rig.layout->Map(lba, 1)) {
      rig.injector.InjectLatentError(f.replicas[0].disk, f.replicas[0].lba);
    }
  }
  ASSERT_EQ(rig.injector.TotalLatentErrors(), 3u);

  // No foreground traffic: the idle-gated scrubber owns the array. Give it
  // time for at least one full sweep plus the repair rewrites.
  rig.sim.RunUntil(SimTime(5'000'000));
  rig.Drain();

  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.scrub_reads, 0u);
  EXPECT_GE(fs.scrub_repairs, 3u);
  EXPECT_GE(fs.scrub_sweeps_completed, 1u);
  EXPECT_EQ(rig.injector.TotalLatentErrors(), 0u);
  EXPECT_EQ(rig.injector.counters().write_repairs, 3u);
  rig.controller->AuditQuiescent();
}

TEST(ArrayRecovery, ScrubberYieldsToForegroundTraffic) {
  ArrayRig rig(1, 1, 2, FaultInjectorOptions{}, /*fail_threshold=*/0,
               /*scrub_interval_us=*/SimDuration(10'000), /*spares=*/0,
               /*dataset=*/640);
  // Keep the array busy: back-to-back foreground reads for 2 simulated
  // seconds. The idle-gated scrubber must stand aside the whole time.
  Rng rng(23);
  while (rig.sim.Now() < SimTime(2'000'000)) {
    rig.Do(DiskOp::kRead, rng.UniformU64(640 - 8), 8);
  }
  EXPECT_EQ(rig.controller->fault_stats().scrub_reads, 0u);
  rig.Drain();
}

// ---------------------------------------------------------------------------
// RAID-5 recovery: the erasure controller with k = n - 1, m = 1.
// ---------------------------------------------------------------------------

struct Raid5Rig {
  explicit Raid5Rig(uint32_t disks_n = 4,
                    const FaultInjectorOptions& fopts = FaultInjectorOptions{})
      : injector(fopts) {
    for (uint32_t i = 0; i < disks_n; ++i) {
      sim_disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), 17 + i, i * 500.0));
      preds.push_back(
          std::make_unique<OraclePredictor>(sim_disks.back().get(), 0.0));
      dptr.push_back(sim_disks.back().get());
      pptr.push_back(preds.back().get());
    }
    layout = std::make_unique<EcLayout>(disks_n, disks_n - 1, 16, 2000);
    codec = std::make_unique<EcCodec>(disks_n - 1, 1);
    DriveSetOptions copts;
    copts.fault_injector = &injector;
    controller = std::make_unique<EcController>(&sim, dptr, pptr, layout.get(),
                                                codec.get(), copts);
  }

  // The row's single parity disk.
  uint32_t ParityDisk(const EcFragment& frag) const {
    return layout->ParityDiskOf(frag.row, 0);
  }

  IoResult Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    IoResult out;
    bool done = false;
    controller->Submit(op, lba, sectors, [&](const IoResult& r) {
      out = r;
      done = true;
    });
    while (!done) {
      EXPECT_TRUE(sim.Step());
    }
    return out;
  }

  void Drain() {
    while (!controller->Idle() && sim.Step()) {
    }
  }

  Simulator sim;
  FaultInjector injector;
  std::vector<std::unique_ptr<SimDisk>> sim_disks;
  std::vector<std::unique_ptr<AccessPredictor>> preds;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  std::unique_ptr<EcLayout> layout;
  std::unique_ptr<EcCodec> codec;
  std::unique_ptr<EcController> controller;
};

TEST(Raid5Recovery, TransientReadErrorRetriesInPlace) {
  Raid5Rig rig;
  const auto frag = rig.layout->Map(0, 8)[0];
  rig.injector.InjectTransientErrors(frag.data_disk, 1);
  const IoResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_EQ(fs.media_errors_seen, 1u);
  EXPECT_EQ(fs.retries_issued, 1u);
  EXPECT_EQ(rig.controller->stats().degraded_reads, 0u);
  rig.Drain();
}

TEST(Raid5Recovery, PersistentMediaErrorReconstructsAndRepairs) {
  Raid5Rig rig;
  const auto frag = rig.layout->Map(0, 8)[0];
  for (uint32_t s = 0; s < frag.sectors; ++s) {
    rig.injector.InjectLatentError(frag.data_disk, frag.disk_lba + s);
  }
  const IoResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);  // served via peer reconstruction
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.media_errors_seen, 0u);
  EXPECT_GT(fs.failovers, 0u);
  EXPECT_EQ(fs.repairs_queued, 1u);
  rig.Drain();
  // The repair rewrite reallocated the bad sectors on the data disk.
  EXPECT_EQ(rig.injector.LatentErrorCount(frag.data_disk), 0u);
  EXPECT_GT(rig.injector.counters().write_repairs, 0u);
  EXPECT_GT(rig.sim_disks[frag.data_disk]->layout().num_remapped_sectors(), 0u);
  // The repaired copy serves direct reads again.
  const uint64_t before = rig.controller->stats().degraded_reads;
  EXPECT_EQ(rig.Do(DiskOp::kRead, 0, 8).status, IoStatus::kOk);
  EXPECT_EQ(rig.controller->stats().degraded_reads, before);
}

TEST(Raid5Recovery, DoubleFailureReadsSurfaceUnrecoverable) {
  // Satellite regression: the second FailDisk used to be a hard CHECK; both
  // orders must now be survived, with per-fragment graceful degradation.
  for (const bool reverse : {false, true}) {
    Raid5Rig rig;
    const auto frag = rig.layout->Map(0, 8)[0];
    const uint32_t parity_disk = rig.ParityDisk(frag);
    const uint32_t first = reverse ? parity_disk : frag.data_disk;
    const uint32_t second = reverse ? frag.data_disk : parity_disk;
    rig.controller->FailDisk(SlotId(first));
    rig.controller->FailDisk(SlotId(second));
    EXPECT_TRUE(rig.controller->IsFailed(SlotId(frag.data_disk)));
    EXPECT_TRUE(rig.controller->IsFailed(SlotId(parity_disk)));

    // This fragment needs its dead data disk plus a full reconstruction set
    // that includes the other dead disk: unrecoverable, not a crash.
    const IoResult lost = rig.Do(DiskOp::kRead, 0, 8);
    EXPECT_EQ(lost.status, IoStatus::kUnrecoverable);

    // A fragment whose data disk survived both failures still reads fine.
    uint64_t healthy_lba = 0;
    bool found = false;
    for (uint64_t lba = 0; lba < rig.layout->data_capacity_sectors() && !found;
         lba += 16) {
      const auto f = rig.layout->Map(lba, 8)[0];
      if (!rig.controller->IsFailed(SlotId(f.data_disk))) {
        healthy_lba = lba;
        found = true;
      }
    }
    ASSERT_TRUE(found);
    EXPECT_EQ(rig.Do(DiskOp::kRead, healthy_lba, 8).status, IoStatus::kOk);
    rig.Drain();
    EXPECT_GT(rig.controller->fault_stats().unrecoverable_completions, 0u);
  }
}

TEST(Raid5Recovery, DoubleFailureMixedTrafficNeverCrashes) {
  for (const uint64_t seed : {29ull, 31ull}) {
    Raid5Rig rig(5);
    rig.controller->FailDisk(SlotId(1));
    rig.controller->FailDisk(SlotId(3));
    Rng rng(seed);
    int done = 0;
    constexpr int kOps = 150;
    for (int i = 0; i < kOps; ++i) {
      const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
      const uint64_t lba =
          rng.UniformU64(rig.layout->data_capacity_sectors() - sectors);
      rig.controller->Submit(
          rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite, lba, sectors,
          [&](const IoResult& r) {
            EXPECT_TRUE(r.status == IoStatus::kOk ||
                        r.status == IoStatus::kUnrecoverable);
            ++done;
          });
    }
    while (done < kOps) {
      ASSERT_TRUE(rig.sim.Step());
    }
    rig.Drain();
    EXPECT_TRUE(rig.controller->Idle());
  }
}

TEST(Raid5Recovery, FailStopVerdictAutoFailsTheSlot) {
  Raid5Rig rig;
  const auto frag = rig.layout->Map(0, 8)[0];
  rig.injector.FailStop(frag.data_disk);
  const IoResult r = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(r.status, IoStatus::kOk);  // degraded reconstruction
  const FaultRecoveryStats& fs = rig.controller->fault_stats();
  EXPECT_GT(fs.disk_failed_seen, 0u);
  EXPECT_EQ(fs.auto_disk_failures, 1u);
  EXPECT_TRUE(rig.controller->IsFailed(SlotId(frag.data_disk)));
  EXPECT_EQ(rig.controller->stats().degraded_reads, 1u);
  rig.Drain();
}

TEST(Raid5Recovery, RebuildSurvivesSecondFailureMidway) {
  // Fail disk 0, start its rebuild, then kill another disk mid-rebuild: the
  // rebuild must terminate (some rows lost, counted), never wedge.
  Raid5Rig rig;
  rig.controller->FailDisk(SlotId(0));
  IoResult rebuild_result;
  bool rebuilt = false;
  rig.controller->Rebuild(SlotId(0), [&](const IoResult& r) {
    rebuild_result = r;
    rebuilt = true;
  });
  // Let a few rows rebuild, then fail a survivor.
  rig.sim.RunUntil(rig.sim.Now() + SimDuration(40'000));
  rig.controller->FailDisk(SlotId(2));
  while (!rebuilt) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_NE(rebuild_result.status, IoStatus::kOk);
  EXPECT_GT(rig.controller->fault_stats().rebuild_fragments_lost, 0u);
  EXPECT_TRUE(rig.controller->Idle());
}

}  // namespace
}  // namespace mimdraid
