// Property tests for every scheduler: validity of picks, no starvation, and
// policy-defining optimality properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sched/scheduler.h"
#include "src/sim/auditor.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

class SchedulerProperty : public ::testing::TestWithParam<SchedulerKind> {
 protected:
  SchedulerProperty()
      : disk_(&sim_, MakeTestGeometry(), MakeTestSeekProfile(),
              DiskNoiseModel::None(), 1, 0.0),
        predictor_(&disk_, 0.0),
        rng_(42) {
    ctx_.now = SimTime(0);
    ctx_.predictor = &predictor_;
  }

  QueuedRequest RandomRequest(uint64_t id, int candidates) {
    QueuedRequest r;
    r.id = id;
    r.op = rng_.Bernoulli(0.7) ? DiskOp::kRead : DiskOp::kWrite;
    r.sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(16));
    for (int c = 0; c < candidates; ++c) {
      r.candidates.push_back(QueueCandidate(BlockAddr(
          rng_.UniformU64(disk_.layout().num_data_sectors() - r.sectors))));
    }
    r.arrival_us = SimTime(static_cast<int64_t>(rng_.UniformU64(100000)));
    return r;
  }

  Simulator sim_;
  SimDisk disk_;
  OraclePredictor predictor_;
  ScheduleContext ctx_;
  Rng rng_;
};

TEST_P(SchedulerProperty, PickIsAlwaysValid) {
  auto sched = MakeScheduler(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<QueuedRequest> queue;
    const int n = 1 + static_cast<int>(rng_.UniformU64(12));
    for (int i = 0; i < n; ++i) {
      queue.push_back(RandomRequest(trial * 100 + i,
                                    1 + static_cast<int>(rng_.UniformU64(3))));
    }
    ctx_.now = SimTime(trial * 5000);
    RefreshPositions(queue, disk_.layout());
    const SchedulerPick pick = sched->Pick(queue, ctx_);
    ASSERT_LT(pick.queue_index, queue.size());
    const auto& cands = queue[pick.queue_index].candidates;
    EXPECT_NE(std::find_if(cands.begin(), cands.end(),
                           [&](const QueueCandidate& c) { return c.lba == pick.lba; }),
              cands.end());
  }
}

TEST_P(SchedulerProperty, DrainsEveryRequestExactlyOnce) {
  auto sched = MakeScheduler(GetParam());
  std::vector<QueuedRequest> queue;
  std::set<uint64_t> ids;
  for (int i = 0; i < 30; ++i) {
    queue.push_back(RandomRequest(i + 1, 2));
    ids.insert(i + 1);
  }
  SimTime now;  // default-constructed: t=0
  while (!queue.empty()) {
    ctx_.now = now;
    RefreshPositions(queue, disk_.layout());
    const SchedulerPick pick = sched->Pick(queue, ctx_);
    ASSERT_LT(pick.queue_index, queue.size());
    EXPECT_EQ(ids.erase(queue[pick.queue_index].id), 1u);
    queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick.queue_index));
    now += SimDuration(3000);
  }
  EXPECT_TRUE(ids.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerProperty,
    ::testing::Values(SchedulerKind::kFcfs, SchedulerKind::kSstf,
                      SchedulerKind::kLook, SchedulerKind::kClook,
                      SchedulerKind::kSatf, SchedulerKind::kAsatf,
                      SchedulerKind::kRlook, SchedulerKind::kRsatf),
    [](const auto& suite_info) { return SchedulerKindName(suite_info.param); });

// Policy-specific optimality: SATF's pick minimizes the predicted effective
// service time over primary candidates; RSATF over all candidates.
TEST(SchedulerOptimality, SatfMinimizesOverPrimaries) {
  Simulator sim;
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::None(), 1, 0.0);
  OraclePredictor predictor(&disk, 0.0);
  ScheduleContext ctx{
      .now = SimTime(12345), .predictor = &predictor, .disk = SlotId(0)};
  Rng rng(7);
  auto satf = MakeScheduler(SchedulerKind::kSatf);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<QueuedRequest> queue;
    for (int i = 0; i < 8; ++i) {
      QueuedRequest r;
      r.id = i + 1;
      r.op = DiskOp::kRead;
      r.sectors = 4;
      r.candidates = {QueueCandidate(BlockAddr(rng.UniformU64(disk.num_sectors() - 4)))};
      queue.push_back(std::move(r));
    }
    RefreshPositions(queue, disk.layout());
    ctx.now = SimTime(trial * 7777);
    const SchedulerPick pick = satf->Pick(queue, ctx);
    double best = 1e18;
    for (const QueuedRequest& r : queue) {
      const AccessPlan plan =
          predictor.Predict(ctx.now, r.primary(), r.sectors, false);
      best = std::min(best, predictor.EffectiveServiceUs(plan));
    }
    const AccessPlan chosen = predictor.Predict(
        ctx.now, pick.lba, queue[pick.queue_index].sectors, false);
    EXPECT_DOUBLE_EQ(predictor.EffectiveServiceUs(chosen), best);
  }
}

// RLOOK's request choice matches plain LOOK's; only the replica differs.
TEST(SchedulerOptimality, RlookFollowsLookRequestOrder) {
  Simulator sim;
  SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
               DiskNoiseModel::None(), 1, 0.0);
  OraclePredictor predictor(&disk, 0.0);
  ScheduleContext ctx{
      .now = SimTime(0), .predictor = &predictor, .disk = SlotId(0)};
  Rng rng(9);
  auto rlook = MakeScheduler(SchedulerKind::kRlook);
  auto look = MakeScheduler(SchedulerKind::kLook);
  std::vector<QueuedRequest> q1;
  std::vector<QueuedRequest> q2;
  for (int i = 0; i < 20; ++i) {
    QueuedRequest r;
    r.id = i + 1;
    r.op = DiskOp::kRead;
    r.sectors = 1;
    const uint64_t primary = rng.UniformU64(disk.num_sectors() - 1);
    r.candidates = {QueueCandidate(BlockAddr(primary))};
    q2.push_back(r);  // LOOK sees only the primary
    // RLOOK also sees a same-cylinder alternate.
    const Chs chs = disk.layout().ToChs(primary);
    const uint32_t other_head = (chs.head + 1) % 4;
    const uint64_t alt =
        disk.layout().ToLba(Chs{chs.cylinder, other_head, chs.sector});
    if (alt != kInvalidLba) {
      r.candidates.push_back(QueueCandidate(BlockAddr(alt)));
    }
    q1.push_back(std::move(r));
  }
  RefreshPositions(q1, disk.layout());
  RefreshPositions(q2, disk.layout());
  while (!q1.empty()) {
    const SchedulerPick p1 = rlook->Pick(q1, ctx);
    const SchedulerPick p2 = look->Pick(q2, ctx);
    EXPECT_EQ(q1[p1.queue_index].id, q2[p2.queue_index].id);
    q1.erase(q1.begin() + static_cast<ptrdiff_t>(p1.queue_index));
    q2.erase(q2.begin() + static_cast<ptrdiff_t>(p2.queue_index));
  }
}

// --- LOOK edge cases: direction reversal and same-cylinder tie-breaks. ---

class LookEdgeCases : public ::testing::Test {
 protected:
  LookEdgeCases()
      : disk_(&sim_, MakeTestGeometry(), MakeTestSeekProfile(),
              DiskNoiseModel::None(), 1, 0.0),
        predictor_(&disk_, 0.0) {
    ctx_.now = SimTime(0);
    ctx_.predictor = &predictor_;
  }

  // Stamped with its position, as DriveSet does before a pick.
  QueuedRequest AtCylinder(uint64_t id, uint32_t cylinder, int64_t arrival) {
    const uint64_t lba = disk_.layout().ToLba(Chs{cylinder, 0, 0});
    EXPECT_NE(lba, kInvalidLba) << "cylinder " << cylinder;
    QueuedRequest r;
    r.id = id;
    r.op = DiskOp::kRead;
    r.sectors = 1;
    r.candidates = {QueueCandidate(BlockAddr(lba))};
    r.arrival_us = SimTime(arrival);
    RefreshPositions(std::span(&r, 1), disk_.layout());
    return r;
  }

  std::vector<uint64_t> DrainIds(Scheduler& sched,
                                 std::vector<QueuedRequest> queue) {
    std::vector<uint64_t> order;
    while (!queue.empty()) {
      const SchedulerPick pick = sched.Pick(queue, ctx_);
      order.push_back(queue[pick.queue_index].id);
      queue.erase(queue.begin() + static_cast<ptrdiff_t>(pick.queue_index));
    }
    return order;
  }

  Simulator sim_;
  SimDisk disk_;
  OraclePredictor predictor_;
  ScheduleContext ctx_;
};

TEST_F(LookEdgeCases, ReversesOnlyWhenAheadExhausted) {
  // Upward from cylinder 0: 10, 30, 50; then nothing ahead, so the sweep
  // reverses and services the remaining lower cylinders in descending order.
  auto sched = MakeScheduler(SchedulerKind::kLook);
  std::vector<QueuedRequest> queue;
  queue.push_back(AtCylinder(1, 50, 0));
  queue.push_back(AtCylinder(2, 10, 0));
  queue.push_back(AtCylinder(3, 30, 0));
  queue.push_back(AtCylinder(4, 20, 0));
  queue.push_back(AtCylinder(5, 40, 0));
  // First pass picks 10, 20, 30, 40, 50 — no reversal needed at all.
  EXPECT_EQ(DrainIds(*sched, queue), (std::vector<uint64_t>{2, 4, 3, 5, 1}));

  // A fresh elevator that services 50 first must reverse to reach the rest:
  // descending 30, then 10.
  auto sched2 = MakeScheduler(SchedulerKind::kLook);
  std::vector<QueuedRequest> high_first;
  high_first.push_back(AtCylinder(1, 50, 0));
  const SchedulerPick first = sched2->Pick(high_first, ctx_);
  EXPECT_EQ(high_first[first.queue_index].id, 1u);  // arm now at 50, going up
  high_first.clear();
  high_first.push_back(AtCylinder(2, 10, 0));
  high_first.push_back(AtCylinder(3, 30, 0));
  EXPECT_EQ(DrainIds(*sched2, high_first), (std::vector<uint64_t>{3, 2}));
}

TEST_F(LookEdgeCases, SameCylinderTieBreaksByEarliestArrival) {
  auto sched = MakeScheduler(SchedulerKind::kLook);
  std::vector<QueuedRequest> queue;
  queue.push_back(AtCylinder(1, 20, /*arrival=*/500));
  queue.push_back(AtCylinder(2, 20, /*arrival=*/100));
  queue.push_back(AtCylinder(3, 20, /*arrival=*/300));
  EXPECT_EQ(DrainIds(*sched, queue), (std::vector<uint64_t>{2, 3, 1}));

  // The tie-break is by arrival time, not queue position: reversing the
  // submission order must not change the service order.
  auto sched2 = MakeScheduler(SchedulerKind::kLook);
  std::vector<QueuedRequest> reversed;
  reversed.push_back(AtCylinder(3, 20, /*arrival=*/300));
  reversed.push_back(AtCylinder(2, 20, /*arrival=*/100));
  reversed.push_back(AtCylinder(1, 20, /*arrival=*/500));
  EXPECT_EQ(DrainIds(*sched2, reversed), (std::vector<uint64_t>{2, 3, 1}));
}

TEST_F(LookEdgeCases, CurrentCylinderStaysEligible) {
  // Service cylinder 40 on the way up, then requests at 40 and below:
  // eligibility is non-strict (cyl >= current going up), so the second
  // request at 40 is serviced with no arm movement and no reversal; only
  // then does the sweep turn around for 15.
  auto sched = MakeScheduler(SchedulerKind::kLook);
  std::vector<QueuedRequest> queue;
  queue.push_back(AtCylinder(1, 40, 0));
  const SchedulerPick first = sched->Pick(queue, ctx_);
  EXPECT_EQ(queue[first.queue_index].id, 1u);
  queue.clear();
  queue.push_back(AtCylinder(2, 15, 0));
  queue.push_back(AtCylinder(3, 40, 0));
  EXPECT_EQ(DrainIds(*sched, queue), (std::vector<uint64_t>{3, 2}));
}

// --- RSATF max_scan: the scan window is a strict queue prefix. ---

class RsatfMaxScan : public ::testing::Test {
 protected:
  RsatfMaxScan()
      : disk_(&sim_, MakeTestGeometry(), MakeTestSeekProfile(),
              DiskNoiseModel::None(), 1, 0.0),
        predictor_(&disk_, 0.0),
        rng_(77) {
    ctx_.now = SimTime(0);
    ctx_.predictor = &predictor_;
  }

  // Stamped with its positions, as DriveSet does before a pick.
  QueuedRequest RandomRequest(uint64_t id, int candidates) {
    QueuedRequest r;
    r.id = id;
    r.op = DiskOp::kRead;
    r.sectors = 1;
    for (int c = 0; c < candidates; ++c) {
      r.candidates.push_back(
          QueueCandidate(BlockAddr(rng_.UniformU64(disk_.num_sectors() - 1))));
    }
    r.arrival_us = SimTime(static_cast<int64_t>(rng_.UniformU64(1000)));
    RefreshPositions(std::span(&r, 1), disk_.layout());
    return r;
  }

  Simulator sim_;
  SimDisk disk_;
  OraclePredictor predictor_;
  ScheduleContext ctx_;
  Rng rng_;
};

TEST_F(RsatfMaxScan, WindowedPickEqualsFullPickOnPrefix) {
  // RSATF with max_scan=k on the whole queue behaves exactly like unbounded
  // RSATF restricted to the first k entries.
  constexpr size_t kWindow = 4;
  auto windowed = MakeScheduler(SchedulerKind::kRsatf, kWindow);
  auto unbounded = MakeScheduler(SchedulerKind::kRsatf);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<QueuedRequest> queue;
    for (int i = 0; i < 12; ++i) {
      queue.push_back(RandomRequest(trial * 100 + i, 1 + trial % 3));
    }
    ctx_.now = SimTime(trial * 4321);
    const SchedulerPick w = windowed->Pick(queue, ctx_);
    const std::vector<QueuedRequest> prefix(queue.begin(),
                                            queue.begin() + kWindow);
    const SchedulerPick u = unbounded->Pick(prefix, ctx_);
    EXPECT_EQ(w.queue_index, u.queue_index) << "trial " << trial;
    EXPECT_EQ(w.lba, u.lba) << "trial " << trial;
    EXPECT_DOUBLE_EQ(w.predicted_service_us, u.predicted_service_us);
  }
}

TEST_F(RsatfMaxScan, CheaperCandidateBeyondWindowIsIgnored) {
  // Sort single-candidate requests most-expensive-first, so the globally
  // cheapest request sits at the back of the queue. Unbounded RSATF takes it;
  // max_scan must confine the pick to the prefix window ahead of it.
  constexpr size_t kWindow = 4;
  auto cost = [&](const QueuedRequest& r) {
    const AccessPlan plan =
        predictor_.Predict(ctx_.now, r.primary(), r.sectors, false);
    return predictor_.EffectiveServiceUs(plan);
  };
  std::vector<QueuedRequest> queue;
  for (uint64_t i = 0; i < 10; ++i) {
    queue.push_back(RandomRequest(i + 1, 1));
  }
  std::sort(queue.begin(), queue.end(),
            [&](const QueuedRequest& a, const QueuedRequest& b) {
              return cost(a) > cost(b);
            });
  ASSERT_LT(cost(queue.back()), cost(queue[kWindow - 1]));

  auto unbounded = MakeScheduler(SchedulerKind::kRsatf);
  EXPECT_EQ(unbounded->Pick(queue, ctx_).queue_index, queue.size() - 1);
  auto windowed = MakeScheduler(SchedulerKind::kRsatf, kWindow);
  EXPECT_LT(windowed->Pick(queue, ctx_).queue_index, kWindow);
}

TEST_F(RsatfMaxScan, ZeroAndOversizeWindowsScanTheWholeQueue) {
  auto zero = MakeScheduler(SchedulerKind::kRsatf, 0);
  auto oversize = MakeScheduler(SchedulerKind::kRsatf, 1000);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<QueuedRequest> queue;
    for (int i = 0; i < 10; ++i) {
      queue.push_back(RandomRequest(trial * 50 + i, 2));
    }
    ctx_.now = SimTime(trial * 999);
    const SchedulerPick a = zero->Pick(queue, ctx_);
    const SchedulerPick b = oversize->Pick(queue, ctx_);
    EXPECT_EQ(a.queue_index, b.queue_index);
    EXPECT_EQ(a.lba, b.lba);
  }
}

// --- Exact pruning: the cached-position bound never changes a pick. ---

// Forwards everything to `inner` except PickBound, which keeps the default
// zero bound: a scheduler driven through it prunes nothing and reads no
// cached position.
class UnprunedPredictor : public AccessPredictor {
 public:
  explicit UnprunedPredictor(const AccessPredictor* inner) : inner_(inner) {}

  AccessPlan Predict(SimTime now, BlockAddr lba, uint32_t sectors,
                     bool is_write) const override {
    return inner_->Predict(now, lba, sectors, is_write);
  }
  double SlackUs() const override { return inner_->SlackUs(); }
  double RotationUs() const override { return inner_->RotationUs(); }
  HeadState Head() const override { return inner_->Head(); }
  void OnDispatch(SimTime, BlockAddr, uint32_t, bool, double) override {}
  void OnCompletion(SimTime, BlockAddr, uint32_t) override {}

 private:
  const AccessPredictor* inner_;
};

class ExactPruning : public ::testing::TestWithParam<SchedulerKind> {};

// Drains random queues the way DriveSet does (refresh positions, pick, run
// the pick on the drive, report it to the predictor) while
// latent-bad-sector remaps move replicas of entries that were already
// stamped. Every pick must equal the pick of an unpruned scan over freshly
// derived positions: same entry, same replica, same prediction. A stale
// cached position would bound a remapped replica by where it used to be
// (SATF family) or sweep it by its old cylinder (RLOOK).
//
// With `calibrated`, the picks run under a HeadPositionPredictor that tracks
// the arm from completions and re-estimates rotation and phase from a
// reference observation after every one, so a bound kept from an earlier
// pick would bound from the wrong head, angle and transfer floor.
void ExpectPicksMatchUnprunedScan(SchedulerKind kind, bool calibrated) {
  Rng rng(2024);
  uint64_t remaps = 0;
  uint64_t picks = 0;
  std::set<double> rotations;
  std::set<double> phases;
  for (int trial = 0; trial < 12; ++trial) {
    Simulator sim;
    SimDisk disk(&sim, MakeTestGeometry(), MakeTestSeekProfile(),
                 DiskNoiseModel::None(), 1, 0.0);
    OraclePredictor oracle(&disk, /*slack_us=*/150.0);
    HeadPositionPredictor calib(&disk.layout(), MakeTestSeekProfile(),
                                /*rotation_us=*/6000.0,
                                /*lattice_phase_us=*/0.0,
                                /*reference_lba=*/0);
    AccessPredictor& predictor =
        calibrated ? static_cast<AccessPredictor&>(calib) : oracle;
    UnprunedPredictor unpruned(&predictor);
    auto pruned_sched = MakeScheduler(kind);
    auto reference_sched = MakeScheduler(kind);
    const DiskLayout& layout = disk.layout();

    std::vector<QueuedRequest> queue;
    uint64_t next_id = 1;
    auto add_entry = [&] {
      QueuedRequest r;
      r.id = next_id++;
      r.op = rng.Bernoulli(0.7) ? DiskOp::kRead : DiskOp::kWrite;
      r.sectors = 1 + static_cast<uint32_t>(rng.UniformU64(8));
      const uint64_t replicas = 1 + rng.UniformU64(3);
      for (uint64_t c = 0; c < replicas; ++c) {
        r.candidates.push_back(QueueCandidate(BlockAddr(
            rng.UniformU64(layout.num_data_sectors() - r.sectors))));
      }
      r.arrival_us = sim.Now();
      queue.push_back(std::move(r));
    };
    for (int i = 0; i < 24; ++i) {
      add_entry();
    }
    while (!queue.empty()) {
      // Stamps every entry at the current remap count, as a pick does.
      RefreshPositions(queue, layout);
      // A write elsewhere repairs a latent-bad sector that one of the
      // queued, already stamped entries reads.
      if (rng.Bernoulli(0.5)) {
        const QueuedRequest& victim = queue[rng.UniformU64(queue.size())];
        const QueueCandidate& c =
            victim.candidates[rng.UniformU64(victim.candidates.size())];
        if (disk.mutable_layout().AddBadSector(c.lba.value())) {
          ++remaps;
        }
      }
      if (rng.Bernoulli(0.3)) {
        add_entry();
      }
      RefreshPositions(queue, layout);

      // The reference reads positions derived afresh (RLOOK sweeps by
      // cylinder even unpruned).
      std::vector<QueuedRequest> fresh = queue;
      for (QueuedRequest& r : fresh) {
        for (QueueCandidate& c : r.candidates) {
          c.pos = layout.PositionOf(c.lba.value());
        }
      }
      const SchedulerPick got = pruned_sched->Pick(
          queue, ScheduleContext{.now = sim.Now(),
                                 .predictor = &predictor,
                                 .disk = SlotId(0)});
      const SchedulerPick want = reference_sched->Pick(
          fresh, ScheduleContext{.now = sim.Now(),
                                 .predictor = &unpruned,
                                 .disk = SlotId(0)});
      ASSERT_EQ(got.queue_index, want.queue_index)
          << "trial " << trial << " pick " << picks;
      ASSERT_EQ(got.lba, want.lba) << "trial " << trial << " pick " << picks;
      ASSERT_EQ(got.predicted_service_us, want.predicted_service_us)
          << "trial " << trial << " pick " << picks;
      ++picks;

      const QueuedRequest entry = queue[got.queue_index];
      queue.erase(queue.begin() + static_cast<ptrdiff_t>(got.queue_index));
      predictor.OnDispatch(sim.Now(), got.lba, entry.sectors,
                           entry.op == DiskOp::kWrite,
                           got.predicted_service_us);
      bool done = false;
      disk.Start(entry.op, got.lba, entry.sectors,
                 [&done](const DiskOpResult&) { done = true; });
      while (!done) {
        sim.Step();
      }
      predictor.OnCompletion(sim.Now(), got.lba, entry.sectors);
      if (calibrated) {
        calib.AddReferenceObservation(sim.Now());
        rotations.insert(calib.timing().rotation_us());
        phases.insert(calib.timing().spindle_phase_us());
      }
    }
  }
  // The remaps must actually have landed under queued entries.
  EXPECT_GT(remaps, 100u);
  EXPECT_GT(picks, 300u);
  if (calibrated) {
    // The estimate must actually have moved between picks.
    EXPECT_GT(rotations.size(), 10u);
    EXPECT_GT(phases.size(), 50u);
  }
}

TEST_P(ExactPruning, PicksMatchUnprunedScanAcrossRemaps) {
  ExpectPicksMatchUnprunedScan(GetParam(), /*calibrated=*/false);
}

TEST_P(ExactPruning, PicksMatchUnprunedScanUnderCalibratedPredictor) {
  ExpectPicksMatchUnprunedScan(GetParam(), /*calibrated=*/true);
}


INSTANTIATE_TEST_SUITE_P(
    PositionalSchedulers, ExactPruning,
    ::testing::Values(SchedulerKind::kSatf, SchedulerKind::kRsatf,
                      SchedulerKind::kAsatf, SchedulerKind::kRlook),
    [](const auto& suite_info) { return SchedulerKindName(suite_info.param); });

// The audited scheduler flags a pick over positions that were never
// refreshed, or that a remap made stale; a refreshed queue passes.
TEST_F(SchedulerProperty, AuditFlagsPickOverStalePositions) {
  InvariantAuditor auditor;
  std::vector<std::string> violations;
  auditor.set_failure_handler([&violations](const std::string& message) {
    violations.push_back(message);
  });
  auto sched = MakeAuditedScheduler(
      MakeScheduler(SchedulerKind::kRsatf), &auditor,
      [this]() -> const DiskLayout& { return disk_.layout(); });
  std::vector<QueuedRequest> queue;
  for (int i = 0; i < 6; ++i) {
    queue.push_back(RandomRequest(i + 1, 2));
  }

  sched->Pick(queue, ctx_);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("6 of 6"), std::string::npos) << violations[0];

  RefreshPositions(queue, disk_.layout());
  sched->Pick(queue, ctx_);
  EXPECT_EQ(violations.size(), 1u);

  ASSERT_TRUE(disk_.mutable_layout().AddBadSector(
      queue[0].candidates[0].lba.value()));
  sched->Pick(queue, ctx_);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_NE(violations[1].find("6 of 6"), std::string::npos) << violations[1];
}

}  // namespace
}  // namespace mimdraid
