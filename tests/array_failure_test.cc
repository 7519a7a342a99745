// Disk failure and rebuild in mirrored arrays (the Section 2.5 reliability
// tradeoff): a striped mirror survives a disk; an SR-Array column does not.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

struct Rig {
  Rig(int ds, int dr, int dm, uint64_t dataset = 3000,
      const ArrayControllerOptions& copts = {}) {
    aspect.ds = ds;
    aspect.dr = dr;
    aspect.dm = dm;
    const int d = aspect.TotalDisks();
    for (int i = 0; i < d; ++i) {
      disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), 61 + i, i * 777.0));
      preds.push_back(std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
      dptr.push_back(disks.back().get());
      pptr.push_back(preds.back().get());
    }
    layout = std::make_unique<ArrayLayout>(&disks[0]->layout(), aspect, 16,
                                           dataset);
    controller = std::make_unique<ArrayController>(
        &sim, dptr, pptr, layout.get(), copts);
  }

  SimTime Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    SimTime completion(-1);
    controller->Submit(op, lba, sectors, [&](const IoResult& r) { completion = r.completion_us; });
    while (completion < SimTime(0)) {
      EXPECT_TRUE(sim.Step());
    }
    return completion;
  }

  void Drain() {
    while (!controller->Idle() && sim.Step()) {
    }
  }

  Simulator sim;
  ArrayAspect aspect;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> preds;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  std::unique_ptr<ArrayLayout> layout;
  std::unique_ptr<ArrayController> controller;
};

TEST(ArrayFailure, SrArrayCannotTolerateDiskLoss) {
  Rig rig(1, 2, 1);
  EXPECT_FALSE(rig.controller->FailDisk(SlotId(0)));  // Dm == 1: data loss
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(0)));
}

TEST(ArrayFailure, MirrorServesReadsAfterFailure) {
  Rig rig(2, 1, 2);  // four disks, two mirrored columns
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(0)));
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    rig.Do(DiskOp::kRead, rng.UniformU64(3000 - 8), 8);
  }
  rig.Drain();
  EXPECT_EQ(rig.controller->op_stats().reads_completed, 30u);
  EXPECT_EQ(rig.disks[0]->ops_completed(), 0u);  // nothing touches the corpse
}

TEST(ArrayFailure, MirrorWritesSkipFailedDisk) {
  Rig rig(1, 1, 2);
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(1)));
  for (int i = 0; i < 10; ++i) {
    rig.Do(DiskOp::kWrite, static_cast<uint64_t>(i) * 16, 8);
  }
  rig.Drain();
  EXPECT_EQ(rig.controller->op_stats().writes_completed, 10u);
  EXPECT_EQ(rig.disks[1]->ops_completed(), 0u);
  // No propagation is queued to the failed disk.
  EXPECT_EQ(rig.controller->DelayedBacklog(), 0u);
}

TEST(ArrayFailure, DegradedReadLatencyNoWorseThanSingleCopy) {
  // Healthy 1x1x2 mirror picks the better of two copies; degraded it has one.
  Rig healthy(1, 1, 2);
  Rng rng(7);
  Summary healthy_lat;
  for (int i = 0; i < 60; ++i) {
    const uint64_t lba = rng.UniformU64(3000 - 8);
    const SimTime t0 = healthy.sim.Now();
    healthy_lat.Add(
        static_cast<double>((healthy.Do(DiskOp::kRead, lba, 8) - t0).us()));
  }
  Rig degraded(1, 1, 2);
  ASSERT_TRUE(degraded.controller->FailDisk(SlotId(1)));
  Rng rng2(7);
  Summary degraded_lat;
  for (int i = 0; i < 60; ++i) {
    const uint64_t lba = rng2.UniformU64(3000 - 8);
    const SimTime t0 = degraded.sim.Now();
    degraded_lat.Add(
        static_cast<double>((degraded.Do(DiskOp::kRead, lba, 8) - t0).us()));
  }
  EXPECT_GT(degraded_lat.mean(), healthy_lat.mean() * 0.95);
}

TEST(ArrayFailure, RebuildRestoresService) {
  Rig rig(1, 2, 2, /*dataset=*/800);  // four disks: 2 columns x 2 mirrors
  // Dirty the array a little first.
  for (int i = 0; i < 5; ++i) {
    rig.Do(DiskOp::kWrite, static_cast<uint64_t>(i) * 32, 8);
  }
  rig.Drain();
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(1)));
  SimTime rebuilt_at(-1);
  rig.controller->Rebuild(SlotId(1), [&](const IoResult& r) { rebuilt_at = r.completion_us; });
  while (rebuilt_at < SimTime(0)) {
    ASSERT_TRUE(rig.sim.Step());
  }
  EXPECT_GT(rig.controller->rebuild_copied_fragments(), 0u);
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(1)));
  // The rebuilt disk serves reads again.
  const uint64_t before = rig.disks[1]->ops_completed();
  Rng rng(9);
  for (int i = 0; i < 40; ++i) {
    rig.Do(DiskOp::kRead, rng.UniformU64(800 - 8), 8);
  }
  rig.Drain();
  EXPECT_GT(rig.disks[1]->ops_completed(), before);
}

TEST(ArrayFailure, ForegroundTrafficContinuesDuringRebuild) {
  Rig rig(1, 1, 2, /*dataset=*/1600);
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(0)));
  SimTime rebuilt_at(-1);
  rig.controller->Rebuild(SlotId(0), [&](const IoResult& r) { rebuilt_at = r.completion_us; });
  Rng rng(11);
  int done = 0;
  constexpr int kOps = 50;
  for (int i = 0; i < kOps; ++i) {
    rig.controller->Submit(DiskOp::kRead, rng.UniformU64(1600 - 8), 8,
                           [&](const IoResult&) { ++done; });
  }
  while (done < kOps || rebuilt_at < SimTime(0)) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_EQ(rig.controller->op_stats().reads_completed,
            static_cast<uint64_t>(kOps));
}

TEST(ArrayFailure, RebuildFinishesWhenForcedOutCopyTargetFailStops) {
  // The NVRAM table limit forces the front of a delayed queue into the
  // foreground queue, rebuild copy traffic included: here the first forced
  // entry is a copy write to the slot being rebuilt. When that drive then
  // fail-stops, the forced-out copy must still reach its rebuild hook (which
  // ends the pass with kDiskFailed); dropping it silently leaves the rebuild
  // in progress forever on an otherwise idle array.
  FaultInjector injector(FaultInjectorOptions{});
  ArrayControllerOptions copts;
  copts.delayed_table_limit = 1;
  copts.drives.fault_injector = &injector;
  Rig rig(1, 1, 3, /*dataset=*/3000, copts);
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(0)));
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    rig.Do(DiskOp::kRead, rng.UniformU64(3000 - 8), 8);
  }
  IoResult rebuild;
  bool rebuilt = false;
  rig.controller->Rebuild(SlotId(0), [&](const IoResult& r) {
    rebuild = r;
    rebuilt = true;
  });
  int writes_done = 0;
  for (int i = 0; i < 4; ++i) {
    rig.controller->Submit(DiskOp::kWrite, static_cast<uint64_t>(i) * 64, 8,
                           [&](const IoResult&) { ++writes_done; });
  }
  while (rig.controller->stats().delayed_writes_forced == 0) {
    ASSERT_TRUE(rig.sim.Step());
  }
  injector.FailStop(0);
  uint64_t steps = 0;
  while ((!rig.controller->Idle() || rig.controller->RebuildInProgress()) &&
         rig.sim.Step()) {
    ASSERT_LT(++steps, 10'000'000u) << "drain wedged";
  }
  EXPECT_EQ(writes_done, 4);
  EXPECT_TRUE(rig.controller->IsFailed(SlotId(0)));
  EXPECT_FALSE(rig.controller->RebuildInProgress());
  ASSERT_TRUE(rebuilt);
  EXPECT_EQ(rebuild.status, IoStatus::kDiskFailed);
}

TEST(ArrayFailure, RebuildInProgressWhileCopyWriteRetryBacksOff) {
  // A transiently failed rebuild copy write waits out a recovery backoff
  // with no copy entry queued anywhere; the rebuild is still running.
  FaultInjector injector(FaultInjectorOptions{});
  ArrayControllerOptions copts;
  copts.drives.fault_injector = &injector;
  Rig rig(1, 1, 2, /*dataset=*/3000, copts);
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(0)));
  IoResult rebuild;
  bool rebuilt = false;
  rig.controller->Rebuild(SlotId(0), [&](const IoResult& r) {
    rebuild = r;
    rebuilt = true;
  });
  injector.InjectTransientErrors(0, 1);
  while (rig.controller->fault_stats().retries_issued == 0) {
    ASSERT_TRUE(rig.sim.Step());
  }
  ASSERT_FALSE(rebuilt);
  EXPECT_TRUE(rig.controller->RebuildInProgress());
  uint64_t steps = 0;
  while (!rebuilt && rig.sim.Step()) {
    ASSERT_LT(++steps, 10'000'000u) << "rebuild wedged";
  }
  ASSERT_TRUE(rebuilt);
  EXPECT_EQ(rebuild.status, IoStatus::kOk);
  EXPECT_FALSE(rig.controller->RebuildInProgress());
}

TEST(ArrayFailure, RebuildOfReplacedTargetEndsTheOldStream) {
  // The rebuild target fails again and is replaced while the first pass
  // waits on its source read. The old pass must end with kDiskFailed
  // instead of copying onto the new drive next to the fresh pass: one slot
  // rebuilds once.
  Rig single(1, 1, 2);
  ASSERT_TRUE(single.controller->FailDisk(SlotId(1)));
  single.controller->Rebuild(SlotId(1), nullptr);
  single.Drain();
  const uint64_t single_copies =
      single.controller->rebuild_copied_fragments();
  ASSERT_GT(single_copies, 0u);

  Rig rig(1, 1, 2);
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(1)));
  std::vector<IoStatus> a;
  std::vector<IoStatus> b;
  rig.controller->Rebuild(SlotId(1),
                          [&](const IoResult& r) { a.push_back(r.status); });
  // The first source read is queued on disk 0 and has not run yet.
  ASSERT_TRUE(rig.controller->RebuildInProgress());
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(1)));
  rig.controller->Rebuild(SlotId(1),
                          [&](const IoResult& r) { b.push_back(r.status); });
  EXPECT_TRUE(rig.controller->IsFailed(SlotId(1)))
      << "the second pass must wait for the first to end";
  rig.Drain();
  EXPECT_EQ(a, std::vector<IoStatus>{IoStatus::kDiskFailed});
  EXPECT_EQ(b, std::vector<IoStatus>{IoStatus::kOk});
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(1)));
  EXPECT_EQ(rig.controller->rebuild_copied_fragments(), single_copies);
}

TEST(ArrayFailure, ReplacementDyingOnCopyWriteWithSparePooledAbandonsLegally) {
  // The replacement fail-stops under a rebuild copy write while a hot spare
  // is pooled: the spare is promoted and its pass queued, and the copy's
  // hook ends the old pass, which starts the queued one and clears the
  // slot's failed flag. The copy's abandonment was decided while the slot
  // was failed, so the auditor must accept it.
  InvariantAuditor auditor;
  std::vector<std::string> violations;
  auditor.set_failure_handler(
      [&](const std::string& m) { violations.push_back(m); });
  FaultInjector injector(FaultInjectorOptions{});
  ArrayControllerOptions copts;
  copts.drives.auditor = &auditor;
  copts.drives.fault_injector = &injector;
  Rig rig(1, 1, 2, /*dataset=*/3000, copts);
  SimDisk spare(&rig.sim, MakeTestGeometry(), MakeTestSeekProfile(),
                DiskNoiseModel::None(), 99, 0.0);
  OraclePredictor spare_predictor(&spare, 0.0);
  rig.controller->AddSpare(&spare, &spare_predictor);
  ASSERT_TRUE(rig.controller->FailDisk(SlotId(0)));
  std::vector<IoStatus> first_pass;
  rig.controller->Rebuild(SlotId(0), [&](const IoResult& r) {
    first_pass.push_back(r.status);
  });
  // The first source read runs on disk 1; the copy write it queues on the
  // replacement fails.
  injector.FailStop(0);
  rig.Drain();
  EXPECT_EQ(first_pass, std::vector<IoStatus>{IoStatus::kDiskFailed});
  EXPECT_EQ(rig.controller->spares_available(), 0u);
  EXPECT_FALSE(rig.controller->IsFailed(SlotId(0)));
  EXPECT_GT(rig.controller->rebuild_copied_fragments(), 0u);
  EXPECT_EQ(violations, std::vector<std::string>{});
  rig.controller->AuditQuiescent();
  EXPECT_EQ(violations, std::vector<std::string>{});
}

}  // namespace
}  // namespace mimdraid
