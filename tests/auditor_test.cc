// Corruption-injection tests for the invariant auditor: each test seeds a
// specific violation (time warp, bad replica map, broken queue lifecycle,
// orphaned NVRAM record) and asserts the auditor fires with a message naming
// the operands — proving the tripwire actually trips, not just that clean
// runs stay clean.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/auditor.h"
#include "src/sim/simulator.h"

namespace mimdraid {
namespace {

// Records violations instead of aborting, so a test can seed corruption and
// keep running to inspect what the auditor said.
class RecordingAuditor {
 public:
  RecordingAuditor() {
    auditor_.set_failure_handler(
        [this](const std::string& message) { messages_.push_back(message); });
  }

  InvariantAuditor& auditor() { return auditor_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  InvariantAuditor auditor_;
  std::vector<std::string> messages_;
};

DiskOpAudit MakeCleanOp() {
  DiskOpAudit op;
  op.disk = 0;
  op.lba = 100;
  op.sectors = 8;
  op.start_us = SimTime(1'000);
  op.completion_us = SimTime(1'000 + 5'000);
  op.overhead_us = 500.0;
  op.seek_us = 2'000.0;
  op.rotational_us = 1'500.0;
  op.transfer_us = 1'000.0;
  op.head_cylinder = 10;
  op.head_index = 1;
  op.num_cylinders = 100;
  op.num_heads = 4;
  op.spindle_phase_us = 123.0;
  op.rotation_us = 6'000.0;
  return op;
}

AuditFragment MakeFragment(uint64_t logical_lba, uint32_t sectors,
                           std::vector<AuditReplicaRef> replicas) {
  AuditFragment frag;
  frag.logical_lba = logical_lba;
  frag.sectors = sectors;
  frag.replicas = std::move(replicas);
  return frag;
}

// --- Event-time monotonicity ---

TEST(AuditorTest, CleanEventStreamPasses) {
  RecordingAuditor rec;
  rec.auditor().OnEventScheduled(SimTime(0), SimTime(50));
  rec.auditor().OnEventFired(SimTime(0), SimTime(50));
  rec.auditor().OnEventScheduled(SimTime(50), SimTime(50));  // same-time scheduling is legal
  EXPECT_EQ(rec.auditor().violations(), 0u);
  EXPECT_GT(rec.auditor().checks_run(), 0u);
}

TEST(AuditorTest, CatchesEventScheduledInThePast) {
  RecordingAuditor rec;
  rec.auditor().OnEventScheduled(/*now=*/SimTime(100), /*at=*/SimTime(99));
  ASSERT_EQ(rec.auditor().violations(), 1u);
  EXPECT_NE(rec.auditor().last_violation().find("99"), std::string::npos);
  EXPECT_NE(rec.auditor().last_violation().find("100"), std::string::npos);
}

TEST(AuditorTest, CatchesClockRunningBackwards) {
  RecordingAuditor rec;
  rec.auditor().OnEventFired(/*now_before=*/SimTime(200), /*at=*/SimTime(150));
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

// The end-to-end version: corrupt a live Simulator's clock and show the
// attached auditor flags the stale event when it fires.
TEST(AuditorTest, CatchesCorruptedSimulatorClock) {
  RecordingAuditor rec;
  Simulator sim;
  sim.set_auditor(&rec.auditor());
  sim.ScheduleAt(SimTime(10), [] {});
  sim.CorruptClockForTest(SimTime(500));  // warp past the pending event
  ASSERT_TRUE(sim.Step());      // fires the t=10 event at now=500
  EXPECT_EQ(rec.auditor().violations(), 1u);
  EXPECT_NE(rec.auditor().last_violation().find("clock already reads"),
            std::string::npos);
}

TEST(AuditorTest, CatchesSchedulingIntoCorruptedPast) {
  RecordingAuditor rec;
  Simulator sim;
  sim.set_auditor(&rec.auditor());
  sim.CorruptClockForTest(SimTime(1'000));
  sim.ScheduleAt(SimTime(10), [] {});
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

// --- Disk physical consistency ---

TEST(AuditorTest, CleanDiskOpPasses) {
  RecordingAuditor rec;
  rec.auditor().OnDiskOpComplete(MakeCleanOp());
  rec.auditor().OnDiskOpComplete([] {
    DiskOpAudit next = MakeCleanOp();
    next.start_us = SimTime(7'000);
    next.completion_us = SimTime(12'000);
    return next;
  }());
  EXPECT_EQ(rec.auditor().violations(), 0u);
}

TEST(AuditorTest, CatchesSpindlePhaseDrift) {
  RecordingAuditor rec;
  rec.auditor().OnDiskOpComplete(MakeCleanOp());
  DiskOpAudit drifted = MakeCleanOp();
  drifted.start_us = SimTime(7'000);
  drifted.completion_us = SimTime(12'000);
  drifted.spindle_phase_us = 456.0;  // a physical constant changed
  rec.auditor().OnDiskOpComplete(drifted);
  ASSERT_EQ(rec.auditor().violations(), 1u);
  EXPECT_NE(rec.auditor().last_violation().find("spindle phase"),
            std::string::npos);
}

TEST(AuditorTest, CatchesHeadParkedOutsideGeometry) {
  RecordingAuditor rec;
  DiskOpAudit op = MakeCleanOp();
  op.head_cylinder = op.num_cylinders;  // one past the last cylinder
  rec.auditor().OnDiskOpComplete(op);
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesOverlappingOpsOnOneSpindle) {
  RecordingAuditor rec;
  rec.auditor().OnDiskOpComplete(MakeCleanOp());
  DiskOpAudit overlapping = MakeCleanOp();
  overlapping.start_us = SimTime(5'500);  // first op completes at 6'000
  overlapping.completion_us = SimTime(10'500);
  rec.auditor().OnDiskOpComplete(overlapping);
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesServiceDecompositionMismatch) {
  RecordingAuditor rec;
  DiskOpAudit op = MakeCleanOp();
  op.transfer_us += 500.0;  // components no longer sum to the service time
  rec.auditor().OnDiskOpComplete(op);
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

// --- Scheduler picks ---

TEST(AuditorTest, CatchesPickIndexOutsideQueue) {
  RecordingAuditor rec;
  rec.auditor().OnSchedulerPick("RSATF", /*queue_size=*/3,
                                /*stale_entries=*/0, /*index_faults=*/0,
                                /*picked_index=*/3,
                                /*chosen_lba=*/BlockAddr(42), {BlockAddr(42)},
                                100.0);
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesPickOverBrokenCylinderIndex) {
  RecordingAuditor rec;
  rec.auditor().OnSchedulerPick("RSATF", /*queue_size=*/3,
                                /*stale_entries=*/0, /*index_faults=*/2,
                                /*picked_index=*/0,
                                /*chosen_lba=*/BlockAddr(42), {BlockAddr(42)},
                                100.0);
  ASSERT_EQ(rec.auditor().violations(), 1u);
  EXPECT_NE(rec.auditor().last_violation().find("2 faults"),
            std::string::npos)
      << rec.auditor().last_violation();
}

TEST(AuditorTest, CatchesPickOfLbaTheEntryDoesNotOffer) {
  RecordingAuditor rec;
  rec.auditor().OnSchedulerPick("RSATF", /*queue_size=*/2,
                                /*stale_entries=*/0, /*index_faults=*/0,
                                /*picked_index=*/0,
                                /*chosen_lba=*/BlockAddr(999),
                                {BlockAddr(10), BlockAddr(20), BlockAddr(30)},
                                100.0);
  ASSERT_EQ(rec.auditor().violations(), 1u);
  EXPECT_NE(rec.auditor().last_violation().find("999"), std::string::npos);
}

// --- Queue conservation ---

TEST(AuditorTest, CleanEntryLifecyclePasses) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(0, 1, /*delayed=*/false);
  rec.auditor().OnEntryDispatched(0, 1);
  rec.auditor().OnEntryCompleted(0, 1);
  rec.auditor().OnEntryQueued(1, 2, /*delayed=*/true);
  rec.auditor().OnEntryCancelled(1, 2);
  EXPECT_EQ(rec.auditor().violations(), 0u);
}

TEST(AuditorTest, CatchesDoubleQueuedEntry) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(0, 7, false);
  rec.auditor().OnEntryQueued(0, 7, false);
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesCompletionWithoutDispatch) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(0, 7, false);
  rec.auditor().OnEntryCompleted(0, 7);  // skipped the dispatch transition
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesResurrectedEntry) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(0, 7, false);
  rec.auditor().OnEntryCancelled(0, 7);
  rec.auditor().OnEntryDispatched(0, 7);  // cancelled entries must stay dead
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesEntryDispatchedFromWrongDisk) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(/*disk=*/0, 7, false);
  rec.auditor().OnEntryDispatched(/*disk=*/3, 7);
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

// --- Replica-set agreement ---

TEST(AuditorTest, CleanReplicaMapPasses) {
  RecordingAuditor rec;
  // 2 mirrors x 2 rotational replicas; rotational replicas share a disk.
  std::vector<AuditFragment> frags = {
      MakeFragment(100, 8, {{0, 100}, {0, 612}, {1, 100}, {1, 612}}),
      MakeFragment(108, 4, {{0, 108}, {0, 620}, {1, 108}, {1, 620}}),
  };
  rec.auditor().OnArrayMap(100, 12, /*dm=*/2, /*dr=*/2, /*num_disks=*/2,
                           /*per_disk_physical_sectors=*/1024, frags);
  EXPECT_EQ(rec.auditor().violations(), 0u);
}

TEST(AuditorTest, CatchesMirrorCopiesOnSameDisk) {
  RecordingAuditor rec;
  std::vector<AuditFragment> frags = {
      MakeFragment(100, 8, {{0, 100}, {0, 612}}),  // both mirrors on disk 0
  };
  rec.auditor().OnArrayMap(100, 8, /*dm=*/2, /*dr=*/1, /*num_disks=*/2,
                           /*per_disk_physical_sectors=*/1024, frags);
  ASSERT_GE(rec.auditor().violations(), 1u);
  EXPECT_NE(rec.auditor().last_violation().find("mirror"), std::string::npos);
}

TEST(AuditorTest, CatchesReplicaOnNonexistentDisk) {
  RecordingAuditor rec;
  std::vector<AuditFragment> frags = {
      MakeFragment(100, 8, {{0, 100}, {5, 100}}),  // disk 5 of a 2-disk array
  };
  rec.auditor().OnArrayMap(100, 8, /*dm=*/2, /*dr=*/1, /*num_disks=*/2,
                           /*per_disk_physical_sectors=*/1024, frags);
  EXPECT_GE(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesReplicaPastEndOfDisk) {
  RecordingAuditor rec;
  std::vector<AuditFragment> frags = {
      MakeFragment(100, 8, {{0, 100}, {1, 1020}}),  // 1020+8 > 1024
  };
  rec.auditor().OnArrayMap(100, 8, /*dm=*/2, /*dr=*/1, /*num_disks=*/2,
                           /*per_disk_physical_sectors=*/1024, frags);
  EXPECT_GE(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesGapInFragmentTiling) {
  RecordingAuditor rec;
  std::vector<AuditFragment> frags = {
      MakeFragment(100, 4, {{0, 100}, {1, 100}}),
      MakeFragment(106, 6, {{0, 106}, {1, 106}}),  // sectors 104-105 missing
  };
  rec.auditor().OnArrayMap(100, 12, /*dm=*/2, /*dr=*/1, /*num_disks=*/2,
                           /*per_disk_physical_sectors=*/1024, frags);
  EXPECT_GE(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesWrongReplicaCount) {
  RecordingAuditor rec;
  std::vector<AuditFragment> frags = {
      MakeFragment(100, 8, {{0, 100}}),  // dm*dr = 2 but only one replica
  };
  rec.auditor().OnArrayMap(100, 8, /*dm=*/2, /*dr=*/1, /*num_disks=*/2,
                           /*per_disk_physical_sectors=*/1024, frags);
  EXPECT_GE(rec.auditor().violations(), 1u);
}

// --- NVRAM / delayed-write consistency ---

TEST(AuditorTest, CleanNvramLifecyclePasses) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(0, 9, /*delayed=*/true);
  rec.auditor().OnNvramPut(0, 300, /*owner_entry=*/9);
  rec.auditor().OnNvramErase(0, 300);
  rec.auditor().OnEntryDispatched(0, 9);
  rec.auditor().OnEntryCompleted(0, 9);
  EXPECT_EQ(rec.auditor().violations(), 0u);
}

TEST(AuditorTest, CatchesNvramRecordWithDeadOwner) {
  RecordingAuditor rec;
  rec.auditor().OnNvramPut(0, 300, /*owner_entry=*/77);  // 77 was never queued
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesNvramRecordOwnedByForegroundEntry) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(0, 9, /*delayed=*/false);
  rec.auditor().OnNvramPut(0, 300, /*owner_entry=*/9);
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, CatchesEraseOfUnknownNvramRecord) {
  RecordingAuditor rec;
  rec.auditor().OnNvramErase(0, 300);
  EXPECT_EQ(rec.auditor().violations(), 1u);
}

// --- Quiescence ---

TEST(AuditorTest, QuiescentWithLeftoverEntryFails) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(0, 9, /*delayed=*/false);
  rec.auditor().CheckQuiescent(0, 0, 0, 0, 0, 0, 0);
  EXPECT_GE(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, QuiescentWithNonzeroCountFails) {
  RecordingAuditor rec;
  rec.auditor().CheckQuiescent(/*fg_queued=*/1, 0, 0, 0, 0, 0, 0);
  EXPECT_GE(rec.auditor().violations(), 1u);
}

TEST(AuditorTest, QuiescentWithPolicyRecordsFails) {
  RecordingAuditor rec;
  rec.auditor().CheckQuiescent(0, 0, 0, 0, 0, 0, /*policy_records=*/2);
  ASSERT_EQ(rec.messages().size(), 1u);
  EXPECT_NE(rec.messages()[0].find("2 per-entry policy records"),
            std::string::npos)
      << rec.messages()[0];
}

TEST(AuditorTest, TrulyQuiescentPasses) {
  RecordingAuditor rec;
  rec.auditor().OnEntryQueued(0, 9, false);
  rec.auditor().OnEntryDispatched(0, 9);
  rec.auditor().OnEntryCompleted(0, 9);
  rec.auditor().CheckQuiescent(0, 0, 0, 0, 0, 0, 0);
  EXPECT_EQ(rec.auditor().violations(), 0u);
}

// --- Default handler ---

TEST(AuditorDeathTest, DefaultHandlerAbortsWithOperands) {
  InvariantAuditor auditor;
  EXPECT_DEATH(auditor.OnEventScheduled(/*now=*/SimTime(100), /*at=*/SimTime(99)),
               "AUDIT failed");
}

}  // namespace
}  // namespace mimdraid
