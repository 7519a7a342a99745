#include <gtest/gtest.h>

#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sched/basic_schedulers.h"
#include "src/sched/positional_schedulers.h"
#include "src/sched/scheduler.h"
#include "src/sim/simulator.h"

namespace mimdraid {
namespace {

class SchedTest : public ::testing::Test {
 protected:
  SchedTest()
      : disk_(&sim_, MakeTestGeometry(), MakeTestSeekProfile(),
              DiskNoiseModel::None(), /*seed=*/1, /*spindle_phase_us=*/0.0),
        predictor_(&disk_, 0.0) {
    ctx_.now = SimTime(0);
    ctx_.predictor = &predictor_;
  }

  // Picks from `q` the way DriveSet does: through a drive queue built for
  // `sched`, which derives the positions from the drive's layout as each
  // entry is pushed.
  SchedulerPick PickFrom(Scheduler& sched,
                         const std::vector<QueuedRequest>& q) {
    return sched.Pick(QueueOf(q, sched.index_window()), ctx_);
  }

  DriveQueue QueueOf(const std::vector<QueuedRequest>& q, size_t window) {
    DriveQueue queue(window);
    for (const QueuedRequest& r : q) {
      queue.Push(r, disk_.layout());
    }
    return queue;
  }

  // Queue entry whose primary candidate lies on the given cylinder.
  QueuedRequest ReqAtCylinder(uint32_t cylinder, SimTime arrival = SimTime(0)) {
    QueuedRequest r;
    r.id = next_id_++;
    r.op = DiskOp::kRead;
    r.sectors = 1;
    uint64_t lba = kInvalidLba;
    for (uint32_t h = 0; h < 4 && lba == kInvalidLba; ++h) {
      lba = disk_.layout().ToLba(Chs{cylinder, h, 0});
    }
    EXPECT_NE(lba, kInvalidLba);
    r.candidates = {QueueCandidate(BlockAddr(lba))};
    r.arrival_us = arrival;
    return r;
  }

  Simulator sim_;
  SimDisk disk_;
  OraclePredictor predictor_;
  ScheduleContext ctx_;
  uint64_t next_id_ = 1;
};

TEST_F(SchedTest, FcfsPicksEarliestArrival) {
  FcfsScheduler sched;
  std::vector<QueuedRequest> q;
  q.push_back(ReqAtCylinder(10, SimTime(300)));
  q.push_back(ReqAtCylinder(20, SimTime(100)));
  q.push_back(ReqAtCylinder(30, SimTime(200)));
  EXPECT_EQ(PickFrom(sched, q).queue_index, 1u);
}

TEST_F(SchedTest, SstfPicksNearestCylinder) {
  // Head starts at the first data cylinder (0).
  SstfScheduler sched;
  std::vector<QueuedRequest> q;
  q.push_back(ReqAtCylinder(40));
  q.push_back(ReqAtCylinder(3));
  q.push_back(ReqAtCylinder(25));
  EXPECT_EQ(PickFrom(sched, q).queue_index, 1u);
}

TEST_F(SchedTest, SstfConsidersAllReplicas) {
  SstfScheduler sched;
  std::vector<QueuedRequest> q;
  QueuedRequest multi = ReqAtCylinder(50);
  multi.candidates.push_back(
      QueueCandidate(BlockAddr(disk_.layout().ToLba(Chs{1, 0, 0}))));
  q.push_back(ReqAtCylinder(10));
  q.push_back(multi);
  const SchedulerPick pick = PickFrom(sched, q);
  EXPECT_EQ(pick.queue_index, 1u);  // cylinder-1 replica wins
  EXPECT_EQ(disk_.layout().ToChs(pick.lba.value()).cylinder, 1u);
}

TEST_F(SchedTest, LookSweepsUpThenDown) {
  LookScheduler sched;
  std::vector<QueuedRequest> q;
  q.push_back(ReqAtCylinder(30));
  q.push_back(ReqAtCylinder(10));
  q.push_back(ReqAtCylinder(20));
  // Sweep starts upward from cylinder 0: order 10, 20, 30.
  SchedulerPick p = PickFrom(sched, q);
  EXPECT_EQ(disk_.layout().ToChs(p.lba.value()).cylinder, 10u);
  q.erase(q.begin() + static_cast<ptrdiff_t>(p.queue_index));
  p = PickFrom(sched, q);
  EXPECT_EQ(disk_.layout().ToChs(p.lba.value()).cylinder, 20u);
  q.erase(q.begin() + static_cast<ptrdiff_t>(p.queue_index));
  // Now a request below the current position arrives: direction reverses
  // only once the sweep is exhausted.
  q.push_back(ReqAtCylinder(5));
  p = PickFrom(sched, q);
  EXPECT_EQ(disk_.layout().ToChs(p.lba.value()).cylinder, 30u);
  q.erase(q.begin() + static_cast<ptrdiff_t>(p.queue_index));
  p = PickFrom(sched, q);
  EXPECT_EQ(disk_.layout().ToChs(p.lba.value()).cylinder, 5u);
}

TEST_F(SchedTest, LookServicesEqualCylinderByArrival) {
  LookScheduler sched;
  std::vector<QueuedRequest> q;
  q.push_back(ReqAtCylinder(10, SimTime(500)));
  q.push_back(ReqAtCylinder(10, SimTime(100)));
  EXPECT_EQ(PickFrom(sched, q).queue_index, 1u);
}

TEST_F(SchedTest, ClookWrapsToLowestCylinder) {
  ClookScheduler sched;
  std::vector<QueuedRequest> q;
  q.push_back(ReqAtCylinder(30));
  q.push_back(ReqAtCylinder(50));
  SchedulerPick p = PickFrom(sched, q);
  EXPECT_EQ(disk_.layout().ToChs(p.lba.value()).cylinder, 30u);
  q.erase(q.begin() + static_cast<ptrdiff_t>(p.queue_index));
  p = PickFrom(sched, q);
  EXPECT_EQ(disk_.layout().ToChs(p.lba.value()).cylinder, 50u);
  q.erase(q.begin() + static_cast<ptrdiff_t>(p.queue_index));
  // Below current position: C-LOOK wraps instead of reversing.
  q.push_back(ReqAtCylinder(5));
  q.push_back(ReqAtCylinder(2));
  p = PickFrom(sched, q);
  EXPECT_EQ(disk_.layout().ToChs(p.lba.value()).cylinder, 2u);
}

TEST_F(SchedTest, SatfPicksShortestPredictedAccess) {
  SatfScheduler sched(SchedulerKind::kSatf);
  std::vector<QueuedRequest> q;
  // Far cylinder vs near cylinder: the near one has a much smaller seek.
  q.push_back(ReqAtCylinder(55));
  q.push_back(ReqAtCylinder(1));
  const SchedulerPick pick = PickFrom(sched, q);
  EXPECT_EQ(pick.queue_index, 1u);
  EXPECT_GT(pick.predicted_service_us, 0.0);
}

TEST_F(SchedTest, SatfRespectsMaxScan) {
  SatfScheduler sched(SchedulerKind::kSatf, /*max_scan=*/1);
  std::vector<QueuedRequest> q;
  q.push_back(ReqAtCylinder(55));
  q.push_back(ReqAtCylinder(1));
  // Only the first entry is examined.
  EXPECT_EQ(PickFrom(sched, q).queue_index, 0u);
}

TEST_F(SchedTest, RsatfChoosesMinimumCostReplica) {
  SatfScheduler sched(SchedulerKind::kRsatf);
  std::vector<QueuedRequest> q;
  QueuedRequest r = ReqAtCylinder(40);
  const uint64_t near_lba = disk_.layout().ToLba(Chs{2, 0, 0});
  ASSERT_NE(near_lba, kInvalidLba);
  r.candidates.push_back(QueueCandidate(BlockAddr(near_lba)));
  q.push_back(r);
  const SchedulerPick pick = PickFrom(sched, q);
  // Whichever replica it picks must have the minimal predicted service time.
  double best = std::numeric_limits<double>::infinity();
  for (const QueueCandidate& cand : r.candidates) {
    const AccessPlan plan = predictor_.Predict(ctx_.now, cand.lba, 1, false);
    best = std::min(best, predictor_.EffectiveServiceUs(plan));
  }
  EXPECT_DOUBLE_EQ(pick.predicted_service_us, best);
  const AccessPlan chosen_plan = predictor_.Predict(ctx_.now, pick.lba, 1, false);
  EXPECT_DOUBLE_EQ(predictor_.EffectiveServiceUs(chosen_plan), best);
}

TEST_F(SchedTest, RlookFollowsLookOrderThenBestReplica) {
  RlookScheduler sched;
  std::vector<QueuedRequest> q;
  // Two requests; the cylinder-5 one is next in the upward sweep. It has two
  // rotational replicas on the same cylinder; RLOOK must choose one of them
  // by rotational proximity.
  QueuedRequest near = ReqAtCylinder(5);
  const uint64_t replica2 = disk_.layout().ToLba(Chs{5, 1, 20});
  ASSERT_NE(replica2, kInvalidLba);
  near.candidates.push_back(QueueCandidate(BlockAddr(replica2)));
  q.push_back(ReqAtCylinder(50));
  q.push_back(near);
  const SchedulerPick pick = PickFrom(sched, q);
  EXPECT_EQ(pick.queue_index, 1u);
  EXPECT_EQ(disk_.layout().ToChs(pick.lba.value()).cylinder, 5u);
}

TEST_F(SchedTest, RsatfReplicaChoiceReducesPredictedCost) {
  // With evenly spaced replicas the best replica's predicted rotational wait
  // must be at most ~R/2 (two replicas) while a fixed single copy can cost up
  // to a full R.
  SatfScheduler rsatf(SchedulerKind::kRsatf);
  SatfScheduler satf(SchedulerKind::kSatf);
  double rsatf_total = 0.0;
  double satf_total = 0.0;
  for (uint32_t s = 0; s < 30; s += 3) {
    std::vector<QueuedRequest> q;
    QueuedRequest r = ReqAtCylinder(7);
    const Chs base = disk_.layout().ToChs(r.primary().value());
    // Opposite-angle replica on the next head.
    const double angle = disk_.layout().AngleOf(base);
    double opposite = angle + 0.5 + static_cast<double>(s) / 60.0;
    while (opposite >= 1.0) {
      opposite -= 1.0;
    }
    const uint64_t rep = disk_.layout().LbaForAngle(7, base.head + 1, opposite);
    ASSERT_NE(rep, kInvalidLba);
    r.candidates.push_back(QueueCandidate(BlockAddr(rep)));
    q.push_back(r);
    const DriveQueue queue = QueueOf(q, rsatf.index_window());
    ScheduleContext ctx = ctx_;
    ctx.now = SimTime(static_cast<int64_t>(s) * 137);
    rsatf_total += rsatf.Pick(queue, ctx).predicted_service_us;
    satf_total += satf.Pick(queue, ctx).predicted_service_us;
  }
  EXPECT_LT(rsatf_total, satf_total);
}

TEST(SchedulerFactory, MakesAllKinds) {
  for (SchedulerKind kind :
       {SchedulerKind::kFcfs, SchedulerKind::kSstf, SchedulerKind::kLook,
        SchedulerKind::kClook, SchedulerKind::kSatf, SchedulerKind::kRlook,
        SchedulerKind::kRsatf}) {
    auto sched = MakeScheduler(kind);
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->name(), SchedulerKindName(kind));
  }
}

}  // namespace
}  // namespace mimdraid
