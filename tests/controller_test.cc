#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

namespace mimdraid {
namespace {

// A small rig with explicit ownership of all moving parts.
struct Rig {
  Rig(int ds, int dr, int dm, ArrayControllerOptions copts = {},
      uint64_t dataset = 3000) {
    ArrayAspect aspect;
    aspect.ds = ds;
    aspect.dr = dr;
    aspect.dm = dm;
    const int d = aspect.TotalDisks();
    for (int i = 0; i < d; ++i) {
      disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), /*seed=*/100 + i,
          /*spindle_phase_us=*/i * 700.0));
      predictors.push_back(
          std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
    }
    layout = std::make_unique<ArrayLayout>(&disks[0]->layout(), aspect,
                                           /*stripe_unit_sectors=*/16,
                                           dataset);
    std::vector<SimDisk*> dptr;
    std::vector<AccessPredictor*> pptr;
    for (int i = 0; i < d; ++i) {
      dptr.push_back(disks[i].get());
      pptr.push_back(predictors[i].get());
    }
    controller = std::make_unique<ArrayController>(&sim, dptr, pptr,
                                                   layout.get(), copts);
  }

  SimTime Do(DiskOp op, uint64_t lba, uint32_t sectors) {
    SimTime completion(-1);
    controller->Submit(op, lba, sectors,
                       [&](const IoResult& r) { completion = r.completion_us; });
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
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> predictors;
  std::unique_ptr<ArrayLayout> layout;
  std::unique_ptr<ArrayController> controller;
};

TEST(Controller, SingleReadCompletes) {
  Rig rig(1, 1, 1);
  const SimTime c = rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_GT(c, SimTime(0));
  EXPECT_EQ(rig.controller->op_stats().reads_completed, 1u);
}

TEST(Controller, StripedReadTouchesCorrectDisk) {
  Rig rig(2, 1, 1);
  rig.Do(DiskOp::kRead, 16, 8);  // unit 1 -> disk 1
  EXPECT_EQ(rig.disks[1]->ops_completed(), 1u);
  EXPECT_EQ(rig.disks[0]->ops_completed(), 0u);
}

TEST(Controller, CrossUnitReadFansOut) {
  Rig rig(2, 1, 1);
  rig.Do(DiskOp::kRead, 10, 16);
  EXPECT_EQ(rig.disks[0]->ops_completed(), 1u);
  EXPECT_EQ(rig.disks[1]->ops_completed(), 1u);
}

TEST(Controller, WriteSpawnsDelayedReplicas) {
  Rig rig(1, 2, 1);
  rig.Do(DiskOp::kWrite, 0, 8);
  // The first copy is written; the second is pending.
  EXPECT_EQ(rig.controller->DelayedBacklog(), 1u);
  rig.Drain();
  EXPECT_EQ(rig.controller->DelayedBacklog(), 0u);
  EXPECT_EQ(rig.controller->stats().delayed_writes_completed, 1u);
  EXPECT_EQ(rig.disks[0]->ops_completed(), 2u);
}

TEST(Controller, ForegroundModeWritesAllReplicasBeforeCompleting) {
  ArrayControllerOptions copts;
  copts.foreground_write_propagation = true;
  Rig rig(1, 2, 1, copts);
  rig.Do(DiskOp::kWrite, 0, 8);
  EXPECT_EQ(rig.controller->DelayedBacklog(), 0u);
  EXPECT_EQ(rig.disks[0]->ops_completed(), 2u);
}

TEST(Controller, MirrorWriteCompletesAfterFirstCopy) {
  Rig rig(1, 1, 2);
  rig.Do(DiskOp::kWrite, 0, 8);
  // One disk wrote, the other propagation is pending.
  EXPECT_EQ(rig.controller->DelayedBacklog(), 1u);
  EXPECT_EQ(rig.disks[0]->ops_completed() + rig.disks[1]->ops_completed(), 1u);
  rig.Drain();
  EXPECT_EQ(rig.disks[0]->ops_completed() + rig.disks[1]->ops_completed(), 2u);
}

TEST(Controller, MirrorReadUsesSingleDisk) {
  Rig rig(1, 1, 2);
  rig.Do(DiskOp::kRead, 0, 8);
  EXPECT_EQ(rig.disks[0]->ops_completed() + rig.disks[1]->ops_completed(), 1u);
}

TEST(Controller, ReadAfterWriteIsOrderedAndConsistent) {
  Rig rig(1, 2, 1);
  SimTime write_done(-1);
  SimTime read_done(-1);
  rig.controller->Submit(DiskOp::kWrite, 0, 8,
                         [&](const IoResult& r) { write_done = r.completion_us; });
  rig.controller->Submit(DiskOp::kRead, 0, 8,
                         [&](const IoResult& r) { read_done = r.completion_us; });
  while (read_done < SimTime(0)) {
    ASSERT_TRUE(rig.sim.Step());
  }
  EXPECT_GE(read_done, write_done);
  EXPECT_EQ(rig.controller->stats().parked_reads, 1u);
}

TEST(Controller, ReadIgnoresStaleReplica) {
  Rig rig(1, 2, 1);
  rig.Do(DiskOp::kWrite, 0, 8);
  ASSERT_EQ(rig.controller->DelayedBacklog(), 1u);
  // Immediately read the same block many times: all reads must be served by
  // the single clean replica even though RSATF would love the other one.
  // (The delayed propagation may complete part-way through; that is fine.)
  for (int i = 0; i < 4; ++i) {
    rig.Do(DiskOp::kRead, 0, 8);
  }
  EXPECT_EQ(rig.controller->op_stats().reads_completed, 4u);
}

// Two overlapping unaligned writes leave no replica of the read's range wholly
// clean, though every sector has a clean copy: the read (parked behind both
// writes) splits into a head and a tail, each served from a clean replica.
TEST(Controller, ReadSplitsAtStalePrefix) {
  for (uint32_t off = 1; off <= 7; ++off) {
    SCOPED_TRACE(off);
    Rig rig(1, 2, 1);
    int writes_done = 0;
    bool read_done = false;
    IoStatus read_status = IoStatus::kUnrecoverable;
    const auto on_write = [&](const IoResult&) { ++writes_done; };
    rig.controller->Submit(DiskOp::kWrite, 0, 8, on_write);
    rig.controller->Submit(DiskOp::kWrite, off, 8, on_write);
    rig.controller->Submit(DiskOp::kRead, 0, 8 + off, [&](const IoResult& r) {
      read_status = r.status;
      read_done = true;
    });
    while (!read_done) {
      ASSERT_TRUE(rig.sim.Step());
    }
    EXPECT_EQ(writes_done, 2);
    EXPECT_EQ(read_status, IoStatus::kOk);
    EXPECT_EQ(rig.controller->stats().parked_reads, 1u);
    EXPECT_EQ(rig.controller->stats().stale_fallback_reads, 0u);
    // Two writes, one propagation, then the read's head and tail.
    EXPECT_EQ(rig.disks[0]->ops_completed(), 5u);
    rig.Drain();
    EXPECT_EQ(rig.controller->DelayedBacklog(), 0u);
  }
}

TEST(Controller, DelayedWritesWaitForIdle) {
  Rig rig(1, 2, 1);
  // Queue a burst of reads; delayed propagation must not jump ahead of them.
  SimTime write_done(-1);
  rig.controller->Submit(DiskOp::kWrite, 0, 8,
                         [&](const IoResult& r) { write_done = r.completion_us; });
  int reads_left = 5;
  for (int i = 0; i < 5; ++i) {
    rig.controller->Submit(DiskOp::kRead, 160 + 16 * i, 8,
                           [&](const IoResult&) { --reads_left; });
  }
  while (reads_left > 0) {
    ASSERT_TRUE(rig.sim.Step());
  }
  // All foreground work done; propagation may still be pending or just now
  // getting its turn.
  rig.Drain();
  EXPECT_EQ(rig.controller->stats().delayed_writes_completed, 1u);
}

TEST(Controller, BackToBackWritesDiscardSupersededPropagation) {
  Rig rig(1, 2, 1);
  // Submit both writes concurrently so the first write's pending propagation
  // is still queued (the disk is busy with the second foreground write) when
  // the second write supersedes it.
  int done = 0;
  rig.controller->Submit(DiskOp::kWrite, 0, 8, [&](const IoResult&) { ++done; });
  rig.controller->Submit(DiskOp::kWrite, 0, 8, [&](const IoResult&) { ++done; });
  while (done < 2) {
    ASSERT_TRUE(rig.sim.Step());
  }
  EXPECT_GE(rig.controller->stats().delayed_writes_discarded, 1u);
  rig.Drain();
  EXPECT_EQ(rig.controller->DelayedBacklog(), 0u);
}

TEST(Controller, WriteOverInFlightPropagationQueuesAFreshOne) {
  // Disk 1 is slow, so the first write's propagation to it is still on the
  // drive when the second write to the same block lands on disk 0. That
  // propagation carries the old data: a fresh one must follow it.
  FaultInjector injector{FaultInjectorOptions{}};
  injector.SetFailSlow(1, 8.0);
  ArrayControllerOptions copts;
  copts.drives.fault_injector = &injector;
  Rig rig(1, 1, 2, copts);
  rig.Do(DiskOp::kWrite, 0, 8);
  ASSERT_EQ(rig.controller->DelayedBacklog(), 1u);
  ASSERT_TRUE(rig.disks[1]->busy()) << "propagation to disk 1 dispatched";

  rig.Do(DiskOp::kWrite, 0, 8);
  EXPECT_EQ(rig.disks[0]->ops_completed(), 2u);
  ASSERT_TRUE(rig.disks[1]->busy()) << "first propagation still in flight";
  rig.Drain();

  const ArrayStats& stats = rig.controller->stats();
  EXPECT_EQ(stats.delayed_writes_discarded, 1u);
  EXPECT_EQ(stats.delayed_writes_completed, 2u);
  EXPECT_EQ(rig.controller->DelayedBacklog(), 0u);
  EXPECT_EQ(rig.disks[1]->ops_completed(), 2u);
}

TEST(Controller, DelayedTableLimitForcesWritesOut) {
  ArrayControllerOptions copts;
  copts.delayed_table_limit = 4;
  Rig rig(1, 2, 1, copts);
  // Saturate with writes to distinct blocks; backlog must stay bounded near
  // the limit as propagation is forced into the foreground.
  int remaining = 40;
  for (int i = 0; i < 40; ++i) {
    rig.controller->Submit(DiskOp::kWrite, static_cast<uint64_t>(i) * 16, 8,
                           [&](const IoResult&) { --remaining; });
  }
  while (remaining > 0) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_GT(rig.controller->stats().delayed_writes_forced, 0u);
  EXPECT_EQ(rig.controller->DelayedBacklog(), 0u);
}

TEST(Controller, DuplicatedMirrorReadsCancelled) {
  Rig rig(1, 1, 2);
  // Keep both disks busy, then issue a read: it must be duplicated and one
  // copy cancelled.
  int done = 0;
  rig.controller->Submit(DiskOp::kWrite, 16, 8, [&](const IoResult&) { ++done; });
  rig.controller->Submit(DiskOp::kWrite, 32, 8, [&](const IoResult&) { ++done; });
  rig.controller->Submit(DiskOp::kRead, 0, 8, [&](const IoResult&) { ++done; });
  while (done < 3) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_GE(rig.controller->stats().read_duplicates_cancelled, 1u);
}

TEST(Controller, ManyConcurrentOpsAllComplete) {
  Rig rig(2, 2, 1, {}, 4000);
  int done = 0;
  constexpr int kOps = 200;
  Rng rng(5);
  for (int i = 0; i < kOps; ++i) {
    const uint64_t lba = rng.UniformU64(4000 - 16);
    const DiskOp op = rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite;
    rig.controller->Submit(op, lba, 8, [&](const IoResult&) { ++done; });
  }
  while (done < kOps) {
    ASSERT_TRUE(rig.sim.Step());
  }
  rig.Drain();
  EXPECT_TRUE(rig.controller->Idle());
  EXPECT_EQ(rig.controller->op_stats().reads_completed +
                rig.controller->op_stats().writes_completed,
            static_cast<uint64_t>(kOps));
}

TEST(Controller, RecalibrationIssuesMaintenanceReads) {
  ArrayControllerOptions copts;
  copts.recalibration_interval_us = SimDuration(50'000);
  Rig rig(1, 1, 1, copts);
  // Oracle predictors are not HeadPositionPredictors, so maintenance entries
  // are not generated; swap in a calibrated-style predictor.
  // (Covered more fully in core_test; here we just ensure the timer ticks
  // without disturbing normal traffic.)
  rig.Do(DiskOp::kRead, 0, 8);
  rig.sim.RunUntil(rig.sim.Now() + SimDuration(200'000));
  EXPECT_EQ(rig.controller->stats().maintenance_reads, 0u);
}

TEST(Controller, WriteThenDistantReadKeepsLatencyBounded) {
  Rig rig(1, 2, 1);
  const SimTime c1 = rig.Do(DiskOp::kWrite, 0, 8);
  const SimTime c2 = rig.Do(DiskOp::kRead, 2000, 8);
  EXPECT_GT(c2, c1);
  // Sanity bound: one access cannot exceed a few rotations + max seek.
  EXPECT_LT(c2 - c1, SimDuration(30'000));
}

}  // namespace
}  // namespace mimdraid
