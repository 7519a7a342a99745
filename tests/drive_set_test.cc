// DriveSet queue contract, driven directly through a recording client over
// two noise-free test drives with the invariant auditor attached: the engine
// alone removes queue entries (Cancel, the failed-slot drain), every entry
// comes back through OnEntryComplete exactly once — run, failed, drained or
// enqueued on a failed slot — with no retry of the engine's own, every
// failure among them opens a fault record that the engine closes with the
// resolution the client returns, and the manual failure transitions carry
// the fault injector's verdict.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/io/drive_set.h"
#include "src/sim/auditor.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulator.h"

namespace mimdraid {
namespace {

// Logs every hand-back from the engine, in the order the engine makes them,
// and resolves every failure, run or drained, as `resolution`.
class RecordingClient : public DriveSetClient {
 public:
  std::optional<FaultResolution> OnEntryComplete(
      SlotId /*disk*/, const QueuedRequest& entry, BlockAddr chosen_lba,
      const DiskOpResult& result) override {
    log.push_back("raw " + std::to_string(entry.id) + " " +
                  IoStatusName(result.status) + " @" +
                  std::to_string(chosen_lba.value()));
    open_faults_in_hook.push_back(auditor->open_faults());
    return result.ok() ? std::nullopt : resolution;
  }
  void OnSparePromoted(SlotId /*disk*/) override {}

  const InvariantAuditor* auditor = nullptr;
  // std::nullopt breaks the contract: a failure left without a resolution.
  std::optional<FaultResolution> resolution = FaultResolution::kSurfaced;
  std::vector<std::string> log;
  std::vector<size_t> open_faults_in_hook;
};

class DriveSetTest : public ::testing::Test {
 protected:
  void Build(DriveSetOptions options = {}) {
    options.auditor = &auditor_;
    options.fault_injector = &injector_;
    client_.auditor = &auditor_;
    std::vector<SimDisk*> disks;
    std::vector<AccessPredictor*> predictors;
    for (int i = 0; i < 2; ++i) {
      disks_.push_back(std::make_unique<SimDisk>(
          &sim_, MakeTestGeometry(), MakeTestSeekProfile(),
          DiskNoiseModel::None(), /*seed=*/1 + i, /*spindle_phase_us=*/0.0));
      predictors_.push_back(
          std::make_unique<OraclePredictor>(disks_.back().get(), 0.0));
      disks.push_back(disks_.back().get());
      predictors.push_back(predictors_.back().get());
    }
    drives_ = std::make_unique<DriveSet>(&sim_, disks, predictors, &client_,
                                         options);
  }

  // Queues a raw single-candidate read (foreground unless `delayed`).
  uint64_t EnqueueRaw(SlotId slot, uint64_t lba, bool delayed = false) {
    QueuedRequest entry;
    entry.op = DiskOp::kRead;
    entry.sectors = 1;
    entry.candidates = {QueueCandidate(BlockAddr(lba))};
    entry.delayed = delayed;
    return delayed ? drives_->EnqueueDelayed(slot, std::move(entry))
                   : drives_->EnqueueFg(slot, std::move(entry));
  }

  void RunDry() {
    while (sim_.Step()) {
    }
  }

  Simulator sim_;
  InvariantAuditor auditor_;
  FaultInjector injector_{FaultInjectorOptions{}};
  std::vector<std::unique_ptr<SimDisk>> disks_;
  std::vector<std::unique_ptr<OraclePredictor>> predictors_;
  RecordingClient client_;
  std::unique_ptr<DriveSet> drives_;
};

TEST_F(DriveSetTest, CancelRemovesQueuedEntryButNotDispatchedOne) {
  Build(DriveSetOptions{.scheduler = SchedulerKind::kFcfs});
  const SlotId slot(0);
  const uint64_t running = EnqueueRaw(slot, 10);
  const uint64_t cancelled = EnqueueRaw(slot, 20);
  const uint64_t kept = EnqueueRaw(slot, 30);
  drives_->MaybeDispatch(slot);
  ASSERT_TRUE(drives_->disk(slot)->busy());
  ASSERT_EQ(drives_->fg(slot).size(), 2u);

  EXPECT_TRUE(drives_->Cancel(slot, cancelled));
  EXPECT_EQ(drives_->fg(slot).size(), 1u);
  EXPECT_FALSE(drives_->Cancel(slot, running)) << "already on the drive";
  EXPECT_FALSE(drives_->Cancel(slot, cancelled)) << "cancelled twice";
  EXPECT_FALSE(drives_->Cancel(SlotId(1), kept)) << "queued on another slot";

  RunDry();
  EXPECT_EQ(client_.log,
            (std::vector<std::string>{
                "raw " + std::to_string(running) + " ok @10",
                "raw " + std::to_string(kept) + " ok @30"}));
  EXPECT_TRUE(drives_->AllDrivesQuiet());
  EXPECT_EQ(auditor_.violations(), 0u);
}

TEST_F(DriveSetTest, EnqueueStampsFreshIdsAndArrivalTimes) {
  Build();
  const uint64_t first = EnqueueRaw(SlotId(0), 10);
  sim_.ScheduleAfter(SimDuration(100), [] {});
  ASSERT_TRUE(sim_.Step());
  const uint64_t second = EnqueueRaw(SlotId(1), 20, /*delayed=*/true);
  EXPECT_LT(first, second) << "ids increase in enqueue order";
  ASSERT_EQ(drives_->fg(SlotId(0)).size(), 1u);
  ASSERT_EQ(drives_->delayed(SlotId(1)).size(), 1u);
  EXPECT_EQ(drives_->fg(SlotId(0))[0].id, first);
  EXPECT_EQ(drives_->fg(SlotId(0))[0].arrival_us, SimTime(0));
  EXPECT_EQ(drives_->delayed(SlotId(1))[0].id, second);
  EXPECT_EQ(drives_->delayed(SlotId(1))[0].arrival_us, SimTime(100));
  EXPECT_FALSE(drives_->disk(SlotId(0))->busy()) << "enqueue never dispatches";

  drives_->MaybeDispatch(SlotId(0));
  drives_->MaybeDispatch(SlotId(1));
  RunDry();
  EXPECT_TRUE(drives_->AllDrivesQuiet());
  EXPECT_EQ(auditor_.violations(), 0u);
}

TEST_F(DriveSetTest, AutoFailDrainsDelayedBeforeForeground) {
  Build(DriveSetOptions{.scheduler = SchedulerKind::kFcfs});
  const SlotId slot(0);
  const uint64_t running = EnqueueRaw(slot, 10);
  drives_->MaybeDispatch(slot);
  ASSERT_TRUE(drives_->disk(slot)->busy());
  const uint64_t fg_raw = EnqueueRaw(slot, 20);
  const uint64_t fg_raw2 = EnqueueRaw(slot, 40);
  const uint64_t delayed_raw = EnqueueRaw(slot, 30, /*delayed=*/true);

  drives_->AutoFail(slot);
  EXPECT_TRUE(drives_->failed(slot));
  EXPECT_TRUE(injector_.IsFailStopped(slot.value()));
  EXPECT_EQ(drives_->fstats().auto_disk_failures, 1u);
  EXPECT_TRUE(drives_->fg(slot).empty());
  EXPECT_TRUE(drives_->delayed(slot).empty());
  // The drain hands everything back synchronously: the delayed queue first,
  // then the foreground queue in order.
  EXPECT_EQ(client_.log,
            (std::vector<std::string>{
                "raw " + std::to_string(delayed_raw) + " disk-failed @30",
                "raw " + std::to_string(fg_raw) + " disk-failed @20",
                "raw " + std::to_string(fg_raw2) + " disk-failed @40"}));
  // Each drained entry is a failure on record while its owner decides, and
  // the engine closes the record with the owner's resolution.
  EXPECT_EQ(client_.open_faults_in_hook, (std::vector<size_t>{1, 1, 1}));
  EXPECT_EQ(auditor_.open_faults(), 0u);
  EXPECT_EQ(drives_->fstats().disk_failed_seen, 0u)
      << "a drain counts no fault: the drive ran nothing";

  // The op already on the drive finishes normally.
  RunDry();
  ASSERT_EQ(client_.log.size(), 4u);
  EXPECT_EQ(client_.log.back(),
            "raw " + std::to_string(running) + " ok @10");
  EXPECT_EQ(auditor_.violations(), 0u);
}

TEST_F(DriveSetTest, FailedEntryComesBackOnceWithoutEngineRetry) {
  Build();
  const SlotId slot(1);
  injector_.InjectTransientErrors(slot.value(), 100);
  const uint64_t id = EnqueueRaw(slot, 50);
  drives_->MaybeDispatch(slot);
  RunDry();
  // Recovery is the policy's: the engine counts the fault, opens its record
  // and hands the entry back once, without retrying it; the resolution the
  // client returns closes the record.
  EXPECT_EQ(client_.log,
            (std::vector<std::string>{"raw " + std::to_string(id) +
                                      " media-error @50"}));
  EXPECT_EQ(client_.open_faults_in_hook, std::vector<size_t>{1});
  EXPECT_EQ(auditor_.open_faults(), 0u);
  EXPECT_EQ(drives_->fstats().retries_issued, 0u);
  EXPECT_EQ(drives_->fstats().media_errors_seen, 1u);
  EXPECT_FALSE(drives_->failed(slot)) << "transients never fail the slot";
  EXPECT_TRUE(drives_->AllDrivesQuiet());
  EXPECT_EQ(auditor_.violations(), 0u);
}

TEST_F(DriveSetTest, AbandonedFaultOnLiveSlotIsFlagged) {
  std::vector<std::string> violations;
  auditor_.set_failure_handler(
      [&](const std::string& message) { violations.push_back(message); });
  Build();
  client_.resolution = FaultResolution::kAbandoned;
  const SlotId slot(0);
  injector_.InjectTransientErrors(slot.value(), 100);
  EnqueueRaw(slot, 60);
  drives_->MaybeDispatch(slot);
  RunDry();
  ASSERT_FALSE(drives_->failed(slot));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("abandoned while its target disk is still live"),
            std::string::npos)
      << violations[0];
  EXPECT_EQ(auditor_.open_faults(), 0u) << "the record is closed regardless";
}

using DriveSetDeathTest = DriveSetTest;

TEST_F(DriveSetDeathTest, RanFailureWithoutResolutionDies) {
  EXPECT_DEATH(
      {
        Build();
        client_.resolution = std::nullopt;
        injector_.InjectTransientErrors(1, 100);
        EnqueueRaw(SlotId(1), 50);
        drives_->MaybeDispatch(SlotId(1));
        RunDry();
      },
      "resolution.has_value\\(\\) == !result.ok\\(\\)");
}

TEST_F(DriveSetDeathTest, DrainedEntryWithoutResolutionDies) {
  EXPECT_DEATH(
      {
        Build();
        client_.resolution = std::nullopt;
        EnqueueRaw(SlotId(0), 10);
        drives_->MarkFailed(SlotId(0));
      },
      "resolution.has_value\\(\\) == !result.ok\\(\\)");
}

TEST_F(DriveSetTest, EntryEnqueuedOnFailedSlotComesBackNextTurn) {
  Build();
  const SlotId slot(0);
  drives_->MarkFailed(slot);
  const uint64_t fg_raw = EnqueueRaw(slot, 10);
  const uint64_t delayed_raw = EnqueueRaw(slot, 20, /*delayed=*/true);
  drives_->MaybeDispatch(slot);
  // Neither is queued where it could never run, and neither comes back
  // inside the enqueuing call.
  EXPECT_TRUE(drives_->fg(slot).empty());
  EXPECT_TRUE(drives_->delayed(slot).empty());
  EXPECT_TRUE(client_.log.empty());
  EXPECT_EQ(drives_->pending_recovery(), 2u);

  RunDry();
  EXPECT_EQ(client_.log,
            (std::vector<std::string>{
                "raw " + std::to_string(fg_raw) + " disk-failed @10",
                "raw " + std::to_string(delayed_raw) + " disk-failed @20"}));
  EXPECT_EQ(client_.open_faults_in_hook, (std::vector<size_t>{1, 1}));
  EXPECT_EQ(auditor_.open_faults(), 0u);
  EXPECT_EQ(drives_->pending_recovery(), 0u);
  EXPECT_TRUE(drives_->AllDrivesQuiet());
  EXPECT_EQ(auditor_.violations(), 0u);
}

TEST_F(DriveSetTest, MarkFailedAndMarkReplacedCarryTheInjectorVerdict) {
  Build();
  const SlotId slot(1);
  const uint64_t delayed_raw = EnqueueRaw(slot, 70, /*delayed=*/true);
  drives_->MarkFailed(slot);
  EXPECT_TRUE(drives_->failed(slot));
  EXPECT_TRUE(injector_.IsFailStopped(slot.value()));
  EXPECT_FALSE(injector_.IsFailStopped(0));
  EXPECT_EQ(drives_->fstats().auto_disk_failures, 0u)
      << "a policy-initiated failure is not an automatic one";
  EXPECT_EQ(client_.log,
            (std::vector<std::string>{"raw " + std::to_string(delayed_raw) +
                                      " disk-failed @70"}));

  drives_->MarkReplaced(slot);
  EXPECT_FALSE(drives_->failed(slot));
  EXPECT_FALSE(injector_.IsFailStopped(slot.value()));
  // The replacement drive serves I/O again.
  const uint64_t id = EnqueueRaw(slot, 80);
  drives_->MaybeDispatch(slot);
  RunDry();
  EXPECT_EQ(client_.log.back(), "raw " + std::to_string(id) + " ok @80");
  EXPECT_EQ(auditor_.violations(), 0u);
}

}  // namespace
}  // namespace mimdraid
