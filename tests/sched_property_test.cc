// Property tests for every scheduler: validity of picks, no starvation, and
// policy-defining optimality properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "src/array/placement.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/obs/trace_collector.h"
#include "src/sched/positional_schedulers.h"
#include "src/sched/scheduler.h"
#include "src/sim/auditor.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

// A drive queue holding `entries` in order, with positions derived from
// `layout` as DriveSet's pushes derive them.
DriveQueue QueueOf(std::span<const QueuedRequest> entries,
                   const DiskLayout& layout) {
  DriveQueue queue;
  for (const QueuedRequest& r : entries) {
    queue.Push(r, layout);
  }
  return queue;
}

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
    const SchedulerPick pick =
        sched->Pick(QueueOf(queue, disk_.layout()), ctx_);
    ASSERT_LT(pick.queue_index, queue.size());
    const auto& cands = queue[pick.queue_index].candidates;
    EXPECT_NE(std::find_if(cands.begin(), cands.end(),
                           [&](const QueueCandidate& c) { return c.lba == pick.lba; }),
              cands.end());
  }
}

TEST_P(SchedulerProperty, DrainsEveryRequestExactlyOnce) {
  auto sched = MakeScheduler(GetParam());
  DriveQueue queue(sched->index_window());
  std::set<uint64_t> ids;
  for (int i = 0; i < 30; ++i) {
    queue.Push(RandomRequest(i + 1, 2), disk_.layout());
    ids.insert(i + 1);
  }
  SimTime now;  // default-constructed: t=0
  while (!queue.empty()) {
    ctx_.now = now;
    const SchedulerPick pick = sched->Pick(queue, ctx_);
    ASSERT_LT(pick.queue_index, queue.size());
    EXPECT_EQ(ids.erase(queue.Take(pick.queue_index).id), 1u);
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
    ctx.now = SimTime(trial * 7777);
    const SchedulerPick pick = satf->Pick(QueueOf(queue, disk.layout()), ctx);
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
  DriveQueue q1;
  DriveQueue q2;
  for (int i = 0; i < 20; ++i) {
    QueuedRequest r;
    r.id = i + 1;
    r.op = DiskOp::kRead;
    r.sectors = 1;
    const uint64_t primary = rng.UniformU64(disk.num_sectors() - 1);
    r.candidates = {QueueCandidate(BlockAddr(primary))};
    q2.Push(r, disk.layout());  // LOOK sees only the primary
    // RLOOK also sees a same-cylinder alternate.
    const Chs chs = disk.layout().ToChs(primary);
    const uint32_t other_head = (chs.head + 1) % 4;
    const uint64_t alt =
        disk.layout().ToLba(Chs{chs.cylinder, other_head, chs.sector});
    if (alt != kInvalidLba) {
      r.candidates.push_back(QueueCandidate(BlockAddr(alt)));
    }
    q1.Push(std::move(r), disk.layout());
  }
  while (!q1.empty()) {
    const SchedulerPick p1 = rlook->Pick(q1, ctx);
    const SchedulerPick p2 = look->Pick(q2, ctx);
    EXPECT_EQ(q1.Take(p1.queue_index).id, q2.Take(p2.queue_index).id);
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

  QueuedRequest AtCylinder(uint64_t id, uint32_t cylinder, int64_t arrival) {
    const uint64_t lba = disk_.layout().ToLba(Chs{cylinder, 0, 0});
    EXPECT_NE(lba, kInvalidLba) << "cylinder " << cylinder;
    QueuedRequest r;
    r.id = id;
    r.op = DiskOp::kRead;
    r.sectors = 1;
    r.candidates = {QueueCandidate(BlockAddr(lba))};
    r.arrival_us = SimTime(arrival);
    return r;
  }

  std::vector<uint64_t> DrainIds(Scheduler& sched,
                                 const std::vector<QueuedRequest>& entries) {
    DriveQueue queue = QueueOf(entries, disk_.layout());
    std::vector<uint64_t> order;
    while (!queue.empty()) {
      const SchedulerPick pick = sched.Pick(queue, ctx_);
      order.push_back(queue.Take(pick.queue_index).id);
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
  const SchedulerPick first =
      sched2->Pick(QueueOf(high_first, disk_.layout()), ctx_);
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
  const SchedulerPick first = sched->Pick(QueueOf(queue, disk_.layout()), ctx_);
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
    return r;
  }

  SchedulerPick PickFrom(Scheduler& sched,
                         const std::vector<QueuedRequest>& entries) {
    return sched.Pick(QueueOf(entries, disk_.layout()), ctx_);
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
    const SchedulerPick w = PickFrom(*windowed, queue);
    const std::vector<QueuedRequest> prefix(queue.begin(),
                                            queue.begin() + kWindow);
    const SchedulerPick u = PickFrom(*unbounded, prefix);
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
  EXPECT_EQ(PickFrom(*unbounded, queue).queue_index, queue.size() - 1);
  auto windowed = MakeScheduler(SchedulerKind::kRsatf, kWindow);
  EXPECT_LT(PickFrom(*windowed, queue).queue_index, kWindow);
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
    const SchedulerPick a = PickFrom(*zero, queue);
    const SchedulerPick b = PickFrom(*oversize, queue);
    EXPECT_EQ(a.queue_index, b.queue_index);
    EXPECT_EQ(a.lba, b.lba);
  }
}

// --- Exact pruning: the cylinder walk and its bounds never change a pick. ---

// Forwards everything to `inner` except PickBound, which keeps the default
// zero bound: a SATF-family walk driven through it stops nowhere and visits
// every key, and RLOOK prunes nothing.
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

// The SATF-family pick by definition, sharing no code with SatfScheduler:
// the first `max_scan` entries in scan order (0 = all of them), every
// candidate the kind reads (SATF: the primary only) fully predicted, and the
// first strictly smaller aged cost wins. It reads no position and no bound.
SchedulerPick BruteForcePick(SchedulerKind kind, size_t max_scan,
                             std::span<const QueuedRequest> entries,
                             const AccessPredictor& predictor, SimTime now) {
  const size_t scan =
      max_scan == 0 ? entries.size() : std::min(max_scan, entries.size());
  const double weight =
      kind == SchedulerKind::kAsatf ? SatfScheduler::kAsatfAgeWeight : 0.0;
  SchedulerPick best{0, entries[0].primary(), 0.0};
  double best_aged = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < scan; ++i) {
    const QueuedRequest& req = entries[i];
    const size_t reads =
        kind == SchedulerKind::kSatf ? 1 : req.candidates.size();
    for (size_t c = 0; c < reads; ++c) {
      const AccessPlan plan =
          predictor.Predict(now, req.candidates[c].lba, req.sectors,
                            req.op == DiskOp::kWrite);
      const double aged =
          predictor.EffectiveServiceUs(plan) -
          weight * static_cast<double>((now - req.arrival_us).us());
      if (aged < best_aged) {
        best_aged = aged;
        best = SchedulerPick{i, req.candidates[c].lba, plan.total_us};
      }
    }
  }
  return best;
}

// How a drain shapes its queue.
struct DrainCase {
  // Entries queued before the first pick of each trial.
  int initial_entries = 24;
  int trials = 12;
  size_t max_scan = 0;
  // New entries often copy a queued entry's LBAs, op and size (exact ties
  // between entries), and replicas often share a cylinder or an LBA (exact
  // ties within an entry).
  bool ties = false;
  // New entries carry arrival stamps older than the queue's tail, as a
  // propagation forced out of the delayed queue does.
  bool out_of_order = false;
  // Entries leave from the middle of the queue between picks, as a
  // DriveSet::Cancel takes them.
  bool cancels = false;
};

struct DrainStats {
  uint64_t remaps = 0;
  uint64_t picks = 0;
  // Picks made over a queue that kept a cylinder index (the walk).
  uint64_t walks = 0;
  uint64_t cancels = 0;
  std::set<double> rotations;
  std::set<double> phases;
};

QueuedRequest DrainEntry(const DrainCase& dc, const DiskLayout& layout,
                         const DriveQueue& queue, SimTime now, Rng& rng) {
  QueuedRequest r;
  r.op = rng.Bernoulli(0.7) ? DiskOp::kRead : DiskOp::kWrite;
  r.sectors = 1 + static_cast<uint32_t>(rng.UniformU64(8));
  if (dc.ties && !queue.empty() && rng.Bernoulli(0.3)) {
    const QueuedRequest& twin = queue.entries()[rng.UniformU64(queue.size())];
    r.op = twin.op;
    r.sectors = twin.sectors;
    for (const QueueCandidate& c : twin.candidates) {
      r.candidates.push_back(QueueCandidate(c.lba));
    }
  } else {
    const uint64_t limit = layout.num_data_sectors() - r.sectors;
    const uint64_t primary = rng.UniformU64(limit);
    r.candidates.push_back(QueueCandidate(BlockAddr(primary)));
    const bool one_cylinder = dc.ties && rng.Bernoulli(0.5);
    const uint64_t replicas = 1 + rng.UniformU64(3);
    for (uint64_t c = 1; c < replicas; ++c) {
      uint64_t lba = rng.UniformU64(limit);
      if (one_cylinder) {
        // The primary again, or its sector index on another head.
        Chs chs = layout.ToChs(primary);
        chs.head = static_cast<uint32_t>(
            rng.UniformU64(layout.geometry().num_heads));
        const uint64_t alt = layout.ToLba(chs);
        lba = alt != kInvalidLba && alt <= limit && rng.Bernoulli(0.5)
                  ? alt
                  : primary;
      }
      r.candidates.push_back(QueueCandidate(BlockAddr(lba)));
    }
  }
  const auto back =
      dc.out_of_order ? static_cast<int64_t>(rng.UniformU64(20000)) : 0;
  r.arrival_us = SimTime(std::max<int64_t>(0, now.us() - back));
  return r;
}

// Drains random queues the way DriveSet does (push into a queue built for
// the scheduler, sync, pick, take, run the pick on the drive, report it to
// the predictor) while
// latent-bad-sector remaps move replicas of queued entries. Every pick must
// equal the reference's: same entry, same replica, same prediction. For the
// SATF family the reference is BruteForcePick; RLOOK, which sweeps by
// cylinder even unpruned, is checked against a second RLOOK under the zero
// bound over a queue whose positions are derived afresh. A stale position
// would bound a remapped replica by where it used to be, or file its key
// under its old cylinder.
//
// With `calibrated`, the picks run under a HeadPositionPredictor that tracks
// the arm from completions and re-estimates rotation and phase from a
// reference observation after every one, so a bound kept from an earlier
// pick would bound from the wrong head, angle and transfer floor.
void DrainAndCompare(SchedulerKind kind, const DrainCase& dc, bool calibrated,
                     DrainStats* stats) {
  Rng rng(2024);
  for (int trial = 0; trial < dc.trials; ++trial) {
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
    auto sched = MakeScheduler(kind, dc.max_scan);
    auto reference_rlook = MakeScheduler(SchedulerKind::kRlook);
    const DiskLayout& layout = disk.layout();

    DriveQueue queue(sched->index_window());
    uint64_t next_id = 1;
    auto add_entry = [&] {
      QueuedRequest r = DrainEntry(dc, layout, queue, sim.Now(), rng);
      r.id = next_id++;
      queue.Push(std::move(r), layout);
    };
    for (int i = 0; i < dc.initial_entries; ++i) {
      add_entry();
    }
    while (!queue.empty()) {
      if (rng.Bernoulli(0.3)) {
        add_entry();
      }
      // A write elsewhere repairs a latent-bad sector that one of the
      // queued entries reads, after their positions were derived.
      if (rng.Bernoulli(0.5)) {
        const QueuedRequest& victim =
            queue.entries()[rng.UniformU64(queue.size())];
        const QueueCandidate& c =
            victim.candidates[rng.UniformU64(victim.candidates.size())];
        if (disk.mutable_layout().AddBadSector(c.lba.value())) {
          ++stats->remaps;
        }
      }
      // Taken before the sync, so by the keys of the old positions.
      if (dc.cancels && queue.size() > 1 && rng.Bernoulli(0.2)) {
        queue.Take(rng.UniformU64(queue.size()));
        ++stats->cancels;
      }
      queue.SyncTo(layout);

      const SchedulerPick got = sched->Pick(
          queue, ScheduleContext{.now = sim.Now(),
                                 .predictor = &predictor,
                                 .disk = SlotId(0)});
      const SchedulerPick want =
          kind == SchedulerKind::kRlook
              ? reference_rlook->Pick(
                    QueueOf(queue.entries(), layout),
                    ScheduleContext{.now = sim.Now(),
                                    .predictor = &unpruned,
                                    .disk = SlotId(0)})
              : BruteForcePick(kind, dc.max_scan, queue.entries(), predictor,
                               sim.Now());
      ASSERT_EQ(got.queue_index, want.queue_index)
          << "trial " << trial << " pick " << stats->picks;
      ASSERT_EQ(got.lba, want.lba)
          << "trial " << trial << " pick " << stats->picks;
      ASSERT_EQ(got.predicted_service_us, want.predicted_service_us)
          << "trial " << trial << " pick " << stats->picks;
      ++stats->picks;
      stats->walks += queue.indexed() ? 1 : 0;

      const QueuedRequest entry = queue.Take(got.queue_index);
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
        stats->rotations.insert(calib.timing().rotation_us());
        stats->phases.insert(calib.timing().spindle_phase_us());
      }
    }
  }
}

class ExactPruning : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(ExactPruning, PicksMatchUnprunedScanAcrossRemaps) {
  DrainStats stats;
  DrainAndCompare(GetParam(), DrainCase{}, /*calibrated=*/false, &stats);
  // The remaps must actually have landed under queued entries.
  EXPECT_GT(stats.remaps, 100u);
  EXPECT_GT(stats.picks, 300u);
  // The SATF family both walked the index and scanned shallow queues.
  if (GetParam() != SchedulerKind::kRlook) {
    EXPECT_GT(stats.walks, 100u);
    EXPECT_GT(stats.picks - stats.walks, 100u);
  }
}

TEST_P(ExactPruning, PicksMatchUnprunedScanUnderCalibratedPredictor) {
  DrainStats stats;
  DrainAndCompare(GetParam(), DrainCase{}, /*calibrated=*/true, &stats);
  EXPECT_GT(stats.remaps, 100u);
  EXPECT_GT(stats.picks, 300u);
  // The estimate must actually have moved between picks.
  EXPECT_GT(stats.rotations.size(), 10u);
  EXPECT_GT(stats.phases.size(), 50u);
}

// Queues of 512 entries and more, on a 60-cylinder disk, so most cylinders
// hold many keys; with exact ties between entries and within one, entries
// that arrive out of order and entries cancelled from the middle.
TEST_P(ExactPruning, DeepQueuesWithTiesCancelsAndOutOfOrderArrivals) {
  const DrainCase dc{.initial_entries = 560,
                     .trials = 2,
                     .ties = true,
                     .out_of_order = true,
                     .cancels = true};
  for (const bool calibrated : {false, true}) {
    SCOPED_TRACE(calibrated ? "calibrated" : "oracle");
    DrainStats stats;
    DrainAndCompare(GetParam(), dc, calibrated, &stats);
    EXPECT_GT(stats.picks, 1000u);
    EXPECT_GT(stats.remaps, 50u);
    EXPECT_GT(stats.cancels, 100u);
    if (GetParam() != SchedulerKind::kRlook) {
      EXPECT_GT(stats.walks, 1000u);
    }
  }
}

// max_scan confines the pick to the first entries in scan order. A window
// of 128 is indexed, and takes from inside it move the next entry in scan
// order into the index; windows of 1 and 7 are too shallow to index and
// are scanned.
TEST_P(ExactPruning, ScanWindowsMatchTheFirstEntriesInScanOrder) {
  for (const size_t max_scan : {size_t{1}, size_t{7}, size_t{128}}) {
    const DrainCase dc{.initial_entries = 200,
                       .trials = 2,
                       .max_scan = max_scan,
                       .ties = true,
                       .out_of_order = true,
                       .cancels = true};
    for (const bool calibrated : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "max_scan " << max_scan
                   << (calibrated ? " calibrated" : " oracle"));
      DrainStats stats;
      DrainAndCompare(GetParam(), dc, calibrated, &stats);
      EXPECT_GT(stats.picks, 400u);
      if (GetParam() != SchedulerKind::kRlook) {
        EXPECT_EQ(stats.walks > 300, max_scan == 128) << stats.walks;
      }
    }
  }
}

// A profile whose long regime starts 50 us below the short regime's end, as
// far as WellFormed admits: a 15-cylinder seek (887 us) costs more than any
// from 16 to 53 cylinders (850 to 887 us), so SeekUs is not monotone.
SeekProfile StepDownSeekProfile() {
  SeekProfile p = MakeTestSeekProfile();
  p.long_a_us = 834.0;
  p.long_b_us = 1.0;
  return p;
}

// With the head parked at cylinder 0 and every entry 13 cylinders or more
// away, a key just short of the regime boundary often costs more than the
// winner beyond it. A walk that stopped on the raw seek at the frontier's
// distance, instead of the least seek at that distance or beyond, would stop
// there and miss the winner.
TEST_P(ExactPruning, SeekFloorCoversAProfileThatStepsDown) {
  const SchedulerKind kind = GetParam();
  const SeekProfile profile = StepDownSeekProfile();
  ASSERT_TRUE(profile.WellFormed());
  ASSERT_GT(profile.SeekUs(profile.boundary_cylinders - 1, false),
            profile.SeekUs(profile.boundary_cylinders, false));
  for (const bool calibrated : {false, true}) {
    SCOPED_TRACE(calibrated ? "calibrated" : "oracle");
    Simulator sim;
    SimDisk disk(&sim, MakeTestGeometry(), profile, DiskNoiseModel::None(), 1,
                 0.0);
    // No slack: a short rotational wait must not cost a full rotation here,
    // or no cost could land between the two regimes.
    OraclePredictor oracle(&disk, /*slack_us=*/0.0);
    SlackFeedbackOptions no_slack;
    no_slack.initial_slack_us = 0.0;
    no_slack.min_slack_us = 0.0;
    HeadPositionPredictor calib(&disk.layout(), profile,
                                /*rotation_us=*/6000.0,
                                /*lattice_phase_us=*/0.0,
                                /*reference_lba=*/0, no_slack);
    AccessPredictor& predictor =
        calibrated ? static_cast<AccessPredictor&>(calib) : oracle;
    UnprunedPredictor unpruned(&predictor);
    auto sched = MakeScheduler(kind);
    auto reference_rlook = MakeScheduler(SchedulerKind::kRlook);
    const DiskLayout& layout = disk.layout();
    ASSERT_EQ(predictor.PickBound(SimTime(0)).head_cylinder(), 0u);
    const uint32_t boundary = profile.boundary_cylinders;
    // Every read is one sector at time 0, so every entry earns the same age
    // credit and the transfer term barely moves a cost.
    Rng rng(99);
    auto add_entry = [&](DriveQueue& queue, uint64_t id) {
      QueuedRequest r;
      r.id = id;
      r.op = DiskOp::kRead;
      r.sectors = 1;
      const uint64_t replicas = 1 + rng.UniformU64(3);
      for (uint64_t c = 0; c < replicas; ++c) {
        // Half just short of the boundary, half beyond it.
        const uint32_t cylinder =
            rng.Bernoulli(0.5)
                ? boundary - 3 + static_cast<uint32_t>(rng.UniformU64(3))
                : boundary + static_cast<uint32_t>(rng.UniformU64(14));
        uint64_t lba = kInvalidLba;
        while (lba == kInvalidLba) {
          lba = layout.ToLba(Chs{
              cylinder,
              static_cast<uint32_t>(rng.UniformU64(layout.geometry().num_heads)),
              static_cast<uint32_t>(rng.UniformU64(30))});
        }
        r.candidates.push_back(QueueCandidate(BlockAddr(lba)));
      }
      queue.Push(std::move(r), layout);
    };
    DriveQueue queue(sched->index_window());
    uint64_t next_id = 1;
    for (int i = 0; i < 24; ++i) {
      add_entry(queue, next_id++);
    }
    uint64_t hazards = 0;
    SimTime now;
    for (int pick = 0; pick < 1500; ++pick) {
      now += SimDuration(static_cast<int64_t>(1 + rng.UniformU64(6000)));
      if (rng.Bernoulli(0.05)) {
        const QueuedRequest& victim =
            queue.entries()[rng.UniformU64(queue.size())];
        // A sector already remapped stays where it is.
        (void)disk.mutable_layout().AddBadSector(
            victim.candidates[0].lba.value());
      }
      queue.SyncTo(layout);
      const SchedulerPick got = sched->Pick(
          queue, ScheduleContext{
                     .now = now, .predictor = &predictor, .disk = SlotId(0)});
      const SchedulerPick want =
          kind == SchedulerKind::kRlook
              ? reference_rlook->Pick(
                    QueueOf(queue.entries(), layout),
                    ScheduleContext{
                        .now = now, .predictor = &unpruned, .disk = SlotId(0)})
              : BruteForcePick(kind, 0, queue.entries(), predictor, now);
      ASSERT_EQ(got.queue_index, want.queue_index) << "pick " << pick;
      ASSERT_EQ(got.lba, want.lba) << "pick " << pick;
      ASSERT_EQ(got.predicted_service_us, want.predicted_service_us)
          << "pick " << pick;
      // The hazard: the winner lies past the boundary, and a key short of
      // it costs less than the raw seek there bounds.
      const AccessBound bound = predictor.PickBound(now);
      const double raw_floor = bound.Us(profile.SeekUs(boundary - 1, false), 1);
      double nearer_best = std::numeric_limits<double>::infinity();
      for (const QueuedRequest& r : queue.entries()) {
        for (const QueueCandidate& c : r.candidates) {
          if (c.pos.cylinder < boundary) {
            nearer_best = std::min(
                nearer_best, predictor.EffectiveServiceUs(predictor.Predict(
                                 now, c.lba, r.sectors, false)));
          }
        }
      }
      if (layout.PositionOf(want.lba.value()).cylinder >= boundary &&
          nearer_best < raw_floor) {
        ++hazards;
      }
      queue.Take(got.queue_index);
      add_entry(queue, next_id++);
    }
    if (kind != SchedulerKind::kRlook) {
      EXPECT_GT(hazards, 10u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PositionalSchedulers, ExactPruning,
    ::testing::Values(SchedulerKind::kSatf, SchedulerKind::kRsatf,
                      SchedulerKind::kAsatf, SchedulerKind::kRlook),
    [](const auto& suite_info) { return SchedulerKindName(suite_info.param); });

// --- Walk work: a guard on what the walk visits, not on host time. ---

// Keys the walk visited and index depth, each summed over the picks that
// walked, and how many picks walked.
struct WalkWork {
  uint64_t keys_visited = 0;
  uint64_t depth_sum = 0;
  uint64_t walks = 0;
};

// Drains a 1,024-entry RSATF queue of Dr = 3 reads spread uniformly over an
// ST39133 (an SR-Array placement), running each pick on the drive so the
// head moves. `max_scan` is the scheduler's window; the depth summed is the
// number of entries in it. With `zero_bound` the picks run under the zero
// bound, which must visit every key of every walk. A pick over a queue too
// shallow to index scans its entries and visits no key.
WalkWork DrainDeepRsatfQueue(bool zero_bound, size_t max_scan) {
  Simulator sim;
  SimDisk disk(&sim, MakeSt39133Geometry(), MakeSt39133SeekProfile(),
               DiskNoiseModel::None(), 1, 0.0);
  OraclePredictor oracle(&disk, /*slack_us=*/0.0);
  UnprunedPredictor unpruned(&oracle);
  AccessPredictor& predictor =
      zero_bound ? static_cast<AccessPredictor&>(unpruned) : oracle;
  SrDiskPlacement placement(&disk.layout(), 3);
  TraceCollector collector;
  SatfScheduler sched(SchedulerKind::kRsatf, max_scan);
  Rng rng(5);
  DriveQueue queue(sched.index_window());
  for (uint64_t i = 0; i < 1024; ++i) {
    QueuedRequest r;
    r.id = i + 1;
    r.op = DiskOp::kRead;
    r.sectors = 8;
    const uint64_t s = rng.UniformU64(placement.capacity_sectors() - 8);
    for (const uint64_t lba : placement.AllReplicas(s)) {
      r.candidates.push_back(QueueCandidate(BlockAddr(lba)));
    }
    queue.Push(std::move(r), disk.layout());
  }
  WalkWork work;
  while (!queue.empty()) {
    const uint64_t before = collector.scheduler_keys_visited();
    const SchedulerPick pick = sched.Pick(
        queue, ScheduleContext{.now = sim.Now(),
                               .predictor = &predictor,
                               .collector = &collector,
                               .disk = SlotId(0)});
    const uint64_t visited = collector.scheduler_keys_visited() - before;
    if (queue.indexed()) {
      if (zero_bound) {
        EXPECT_EQ(visited, queue.keys().size());
      }
      work.keys_visited += visited;
      work.depth_sum += std::min(queue.size(), queue.window());
      ++work.walks;
    } else {
      EXPECT_EQ(visited, 0u);
    }
    const QueuedRequest entry = queue.Take(pick.queue_index);
    bool done = false;
    disk.Start(entry.op, pick.lba, entry.sectors,
               [&done](const DiskOpResult&) { done = true; });
    while (!done) {
      sim.Step();
    }
  }
  return work;
}

// Every pick walks until the queue falls below half the index depth.
constexpr uint64_t kDrainWalks = 1024 - DriveQueue::kIndexDepth / 2 + 1;

TEST(SatfWalkWork, DeepRsatfQueueVisitsAnEighthOfItsDepthAtMost) {
  const WalkWork work = DrainDeepRsatfQueue(/*zero_bound=*/false, 0);
  EXPECT_EQ(work.walks, kDrainWalks);
  EXPECT_LE(work.keys_visited * 8, work.depth_sum)
      << static_cast<double>(work.keys_visited) / work.walks
      << " keys per walk at a "
      << static_cast<double>(work.depth_sum) / work.walks
      << "-entry mean depth";
}

// A 128-entry window over the same queue: the index holds only the
// window's 384 keys, so the walk never visits an entry it may not choose.
// The window's keys are an eighth as dense as the whole queue's, so the walk
// reaches further for them: it visits about 0.13 keys per windowed entry,
// a linear walk 3.
TEST(SatfWalkWork, WindowedWalkVisitsAQuarterOfItsWindowAtMost) {
  const WalkWork work = DrainDeepRsatfQueue(/*zero_bound=*/false, 128);
  EXPECT_EQ(work.walks, kDrainWalks);
  EXPECT_LE(work.keys_visited * 4, work.depth_sum)
      << static_cast<double>(work.keys_visited) / work.walks
      << " keys per walk at a "
      << static_cast<double>(work.depth_sum) / work.walks
      << "-entry mean window";
}

TEST(SatfWalkWork, ZeroBoundVisitsEveryKey) {
  const WalkWork work = DrainDeepRsatfQueue(/*zero_bound=*/true, 0);
  EXPECT_EQ(work.walks, kDrainWalks);
  // Three keys per entry, every one of them visited at every walk.
  EXPECT_EQ(work.keys_visited, 3 * work.depth_sum);
}

// The index holds exactly the keys of the window's candidates, built once
// the window holds kIndexDepth entries and kept until it falls below half of
// that, through pushes, takes from the front, the middle and past the
// window, and a remap.
TEST_F(SchedulerProperty, DriveQueueIndexCoversItsWindowWhileDeepEnough) {
  constexpr size_t kWindow = 20;
  DriveQueue queue(kWindow);
  auto expect_index = [&](const char* where) {
    std::vector<DriveQueue::Key> want;
    if (queue.indexed()) {
      for (const QueuedRequest& e :
           queue.entries().first(std::min(kWindow, queue.size()))) {
        for (uint32_t c = 0; c < e.candidates.size(); ++c) {
          want.push_back(DriveQueue::KeyOf(e, c));
        }
      }
      std::sort(want.begin(), want.end());
    }
    ASSERT_EQ(queue.keys().size(), want.size()) << where;
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_FALSE(queue.keys()[k] < want[k] || want[k] < queue.keys()[k])
          << where << " key " << k;
      ASSERT_EQ(queue.keys()[k].pos.slot, want[k].pos.slot) << where;
    }
  };
  for (int i = 0; i < 40; ++i) {
    queue.Push(RandomRequest(i + 1, 3), disk_.layout());
    EXPECT_EQ(queue.indexed(),
              std::min(kWindow, queue.size()) >= DriveQueue::kIndexDepth);
    expect_index("push");
  }
  ASSERT_TRUE(disk_.mutable_layout().AddBadSector(
      queue.entries()[3].candidates[1].lba.value()));
  queue.SyncTo(disk_.layout());
  expect_index("sync");
  bool dropped = false;
  while (!queue.empty()) {
    const size_t size = queue.size();
    // Past the window, inside it, and the front, in turn.
    const size_t i = size > kWindow && size % 3 == 0 ? kWindow
                     : size % 3 == 1                  ? size / 2
                                                      : 0;
    queue.Take(i);
    const size_t windowed = std::min(kWindow, queue.size());
    EXPECT_EQ(queue.indexed(), windowed >= DriveQueue::kIndexDepth / 2);
    dropped = dropped || !queue.indexed();
    expect_index("take");
  }
  EXPECT_TRUE(dropped);
}

// The audited scheduler flags a pick over positions derived from another
// layout, or that a remap made stale; a queue synced to the drive passes.
TEST_F(SchedulerProperty, AuditFlagsPickOverStalePositions) {
  InvariantAuditor auditor;
  std::vector<std::string> violations;
  auditor.set_failure_handler([&violations](const std::string& message) {
    violations.push_back(message);
  });
  auto sched = MakeAuditedScheduler(
      MakeScheduler(SchedulerKind::kRsatf), &auditor,
      [this]() -> const DiskLayout& { return disk_.layout(); });
  // Positions derived from another drive's layout, as a queue would carry
  // across a spare promotion it was not synced after.
  SimDisk other(&sim_, MakeTestGeometry(), MakeTestSeekProfile(),
                DiskNoiseModel::None(), 2, 0.0);
  DriveQueue queue;
  for (int i = 0; i < 6; ++i) {
    queue.Push(RandomRequest(i + 1, 2), other.layout());
  }

  sched->Pick(queue, ctx_);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("6 of 6"), std::string::npos) << violations[0];

  queue.SyncTo(disk_.layout());
  sched->Pick(queue, ctx_);
  EXPECT_EQ(violations.size(), 1u);

  ASSERT_TRUE(disk_.mutable_layout().AddBadSector(
      queue.entries()[0].candidates[0].lba.value()));
  sched->Pick(queue, ctx_);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_NE(violations[1].find("6 of 6"), std::string::npos) << violations[1];
}

}  // namespace
}  // namespace mimdraid
