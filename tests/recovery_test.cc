// Crash recovery of delayed-write propagation via the NVRAM metadata table
// (Section 3.4): the table's snapshot is sufficient to finish every pending
// replica propagation after a crash.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/array/nvram_table.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sim/auditor.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

struct World {
  World(int ds, int dr, int dm, size_t table_limit = 10'000) {
    aspect.ds = ds;
    aspect.dr = dr;
    aspect.dm = dm;
    const int d = aspect.TotalDisks();
    for (int i = 0; i < d; ++i) {
      disks.push_back(std::make_unique<SimDisk>(
          &sim, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), 91 + i, i * 333.0));
      preds.push_back(std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
      dptr.push_back(disks.back().get());
      pptr.push_back(preds.back().get());
    }
    layout = std::make_unique<ArrayLayout>(&disks[0]->layout(), aspect, 16,
                                           3000);
    ArrayControllerOptions copts;
    copts.delayed_table_limit = table_limit;
    controller =
        std::make_unique<ArrayController>(&sim, dptr, pptr, layout.get(), copts);
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

TEST(NvramTableUnit, PutEraseOwnership) {
  NvramTable t;
  t.Put(NvramEntry{1, 100, 8}, 7);
  EXPECT_EQ(t.size(), 1u);
  const NvramTable::Record* record = t.Find(1, 100);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->owner, 7u);
  EXPECT_EQ(record->entry.sectors, 8u);
  EXPECT_FALSE(record->dispatched);
  EXPECT_EQ(t.Find(1, 101), nullptr);
  // A different owner cannot erase it.
  EXPECT_FALSE(t.EraseIfOwner(1, 100, 8));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.EraseIfOwner(1, 100, 7));
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Erase(1, 100));
}

TEST(NvramTableUnit, PutReplacesOwner) {
  NvramTable t;
  t.Put(NvramEntry{0, 5, 4}, 1);
  t.MarkDispatched(0, 5, 1);
  EXPECT_TRUE(t.Find(0, 5)->dispatched);
  t.Put(NvramEntry{0, 5, 4}, 2);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.Find(0, 5)->owner, 2u);
  EXPECT_FALSE(t.Find(0, 5)->dispatched);
}

TEST(NvramTableUnit, ReportsItsOwnChangesToTheAuditor) {
  InvariantAuditor auditor;
  std::vector<std::string> violations;
  auditor.set_failure_handler(
      [&](const std::string& message) { violations.push_back(message); });
  NvramTable t(&auditor);
  auditor.OnEntryQueued(0, 9, /*delayed=*/true);
  t.Put(NvramEntry{0, 300, 8}, 9);
  // A stale owner's erase is refused and must not be reported.
  EXPECT_FALSE(t.EraseIfOwner(0, 300, 8));
  EXPECT_TRUE(t.Erase(0, 300));
  auditor.OnEntryCancelled(0, 9);
  auditor.CheckQuiescent(0, 0, t.size(), 0, 0, 0, 0);
  EXPECT_EQ(violations, std::vector<std::string>{});
}

TEST(NvramTableUnit, SnapshotListsAllEntries) {
  NvramTable t;
  t.Put(NvramEntry{0, 5, 4}, 1);
  t.Put(NvramEntry{1, 9, 8}, 2);
  const auto snap = t.Snapshot();
  EXPECT_EQ(snap.size(), 2u);
}

TEST(Recovery, PendingPropagationsSurviveReboot) {
  World w(1, 2, 1);
  // Issue writes and "crash" as soon as the first copies land (the delayed
  // queue is still full).
  Rng rng(3);
  int done = 0;
  constexpr int kWrites = 12;
  for (int i = 0; i < kWrites; ++i) {
    w.controller->Submit(DiskOp::kWrite, static_cast<uint64_t>(i) * 32, 8,
                         [&](const IoResult&) { ++done; });
  }
  while (done < kWrites) {
    ASSERT_TRUE(w.sim.Step());
  }
  const size_t pending_before = w.controller->DelayedBacklog();
  ASSERT_GT(pending_before, 0u);
  const std::vector<NvramEntry> snapshot = w.controller->nvram().Snapshot();
  ASSERT_EQ(snapshot.size(), pending_before);

  // Crash: everything volatile is lost — only the NVRAM snapshot survives.
  // Boot a fresh machine and recover.
  World fresh(1, 2, 1);
  EXPECT_EQ(fresh.controller->DelayedBacklog(), 0u);
  fresh.controller->RestorePropagations(snapshot);
  EXPECT_EQ(fresh.controller->DelayedBacklog(), pending_before);

  // Recovery completes in the background.
  while (!fresh.controller->Idle() && fresh.sim.Step()) {
  }
  EXPECT_EQ(fresh.controller->DelayedBacklog(), 0u);
  EXPECT_EQ(fresh.controller->stats().delayed_writes_completed,
            pending_before);
}

TEST(Recovery, RecoveredArrayServesReadsConsistently) {
  World w(1, 2, 1);
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    w.controller->Submit(DiskOp::kWrite, static_cast<uint64_t>(i) * 16, 8,
                         [&](const IoResult&) { ++done; });
  }
  while (done < 6) {
    ASSERT_TRUE(w.sim.Step());
  }
  const auto snapshot = w.controller->nvram().Snapshot();
  World fresh(1, 2, 1);
  fresh.controller->RestorePropagations(snapshot);
  // Reads issued immediately after recovery must avoid the still-stale
  // replicas and complete.
  int reads = 0;
  for (int i = 0; i < 6; ++i) {
    fresh.controller->Submit(DiskOp::kRead, static_cast<uint64_t>(i) * 16, 8,
                             [&](const IoResult&) { ++reads; });
  }
  while (reads < 6) {
    ASSERT_TRUE(fresh.sim.Step());
  }
  while (!fresh.controller->Idle() && fresh.sim.Step()) {
  }
  EXPECT_EQ(fresh.controller->op_stats().reads_completed, 6u);
  EXPECT_EQ(fresh.controller->DelayedBacklog(), 0u);
}

TEST(Recovery, SnapshotBoundedByTableLimit) {
  World w(1, 2, 1, /*table_limit=*/4);
  int done = 0;
  constexpr int kWrites = 30;
  for (int i = 0; i < kWrites; ++i) {
    w.controller->Submit(DiskOp::kWrite, static_cast<uint64_t>(i) * 32, 8,
                         [&](const IoResult&) { ++done; });
  }
  while (done < kWrites) {
    ASSERT_TRUE(w.sim.Step());
  }
  // The force-out machinery keeps the table (and therefore the recovery
  // work) bounded near the limit.
  EXPECT_LE(w.controller->nvram().Snapshot().size(), 8u);
  while (!w.controller->Idle() && w.sim.Step()) {
  }
}

TEST(Recovery, EmptySnapshotIsNoOp) {
  World w(1, 2, 1);
  w.controller->RestorePropagations({});
  EXPECT_TRUE(w.controller->Idle());
  EXPECT_EQ(w.controller->DelayedBacklog(), 0u);
}

TEST(Recovery, MirrorConfigurationRecovers) {
  World w(1, 1, 2);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    w.controller->Submit(DiskOp::kWrite, static_cast<uint64_t>(i) * 32, 8,
                         [&](const IoResult&) { ++done; });
  }
  while (done < 8) {
    ASSERT_TRUE(w.sim.Step());
  }
  const auto snapshot = w.controller->nvram().Snapshot();
  const size_t pending = snapshot.size();
  World fresh(1, 1, 2);
  fresh.controller->RestorePropagations(snapshot);
  while (!fresh.controller->Idle() && fresh.sim.Step()) {
  }
  EXPECT_EQ(fresh.controller->stats().delayed_writes_completed, pending);
}

}  // namespace
}  // namespace mimdraid
