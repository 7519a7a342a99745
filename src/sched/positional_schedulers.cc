#include "src/sched/positional_schedulers.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "src/obs/trace_collector.h"
#include "src/util/check.h"

namespace mimdraid {
namespace {

struct CandidateCost {
  // Ranking cost: slack-adjusted (a risky rotational wait is charged a full
  // extra rotation).
  double effective_us = 0.0;
  // Raw predicted service time, reported as the dispatch prediction; if the
  // request then misses its rotation, the error surfaces as a miss and feeds
  // the slack loop.
  double predicted_us = 0.0;
};

CandidateCost CostOf(const ScheduleContext& ctx, const QueuedRequest& req,
                     BlockAddr lba) {
  const AccessPlan plan = ctx.predictor->Predict(
      ctx.now, lba, req.sectors, req.op == DiskOp::kWrite);
  return CandidateCost{ctx.predictor->EffectiveServiceUs(plan), plan.total_us};
}

// True when the candidate's cost bound, less `credit`, exceeds `best`, so it
// can neither win nor retie. The seek term is tested first: it decides most
// candidates, and the rotational wait is computed only for those it keeps.
// It never prunes a candidate the full bound would keep, because
// max(seek, wait) >= seek and rounded addition and subtraction are monotone,
// so the decision is the full bound's.
bool BoundExceeds(const AccessBound& bound, SectorPos pos, uint32_t sectors,
                  bool is_write, double credit, double best) {
  const double seek = bound.SeekUs(pos, is_write);
  return bound.Us(seek, sectors) - credit > best ||
         bound.Us(std::max(seek, bound.WaitUs(pos)), sectors) - credit > best;
}

}  // namespace

// Pruning in the Pick loops below must be *exact*: the figure goldens lock
// the chosen requests byte for byte, so a candidate may be skipped only when
// it provably cannot change the outcome. The SATF family's winner is the
// least (aged cost, scan position, candidate index) over the window, which
// is what a front-to-back scan keeping the first strictly smaller cost
// returns. A candidate is skipped only when its cost lower bound exceeds the
// running best, so it can neither win nor tie; the walk stops only when a
// bound on every key not yet visited does. Each Pick builds the predictor's
// bound once (one virtual call); candidates evaluate it inline.

SatfScheduler::SatfScheduler(SchedulerKind kind, size_t max_scan)
    : kind_(kind),
      max_scan_(max_scan),
      all_replicas_(kind != SchedulerKind::kSatf),
      age_weight_(kind == SchedulerKind::kAsatf ? kAsatfAgeWeight : 0.0) {
  MIMDRAID_CHECK(kind == SchedulerKind::kSatf ||
                 kind == SchedulerKind::kRsatf ||
                 kind == SchedulerKind::kAsatf);
}

double SatfScheduler::AgeCredit(SimTime now, SimTime arrival) const {
  // A zero weight makes the credit +-0.0, and subtracting it is exact, so
  // SATF and RSATF rank by the plain slack-adjusted cost.
  return age_weight_ * static_cast<double>((now - arrival).us());
}

size_t SatfScheduler::index_window() const {
  return max_scan_ == 0 ? DriveQueue::kWholeQueue : max_scan_;
}

SchedulerPick SatfScheduler::Pick(const DriveQueue& queue,
                                  const ScheduleContext& ctx) {
  MIMDRAID_CHECK(!queue.empty());
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  // The window is the first `scan` entries in scan order.
  const size_t scan = max_scan_ == 0 ? queue.size()
                                     : std::min(max_scan_, queue.size());
  if (!queue.indexed()) {
    return Scan(queue.entries().first(scan), ctx);
  }
  MIMDRAID_CHECK_EQ(queue.window(), index_window());
  return Walk(queue, scan, ctx);
}

SchedulerPick SatfScheduler::Scan(std::span<const QueuedRequest> window,
                                  const ScheduleContext& ctx) {
  size_t best = 0;
  BlockAddr best_lba = window[0].primary();
  double best_aged = std::numeric_limits<double>::infinity();
  double best_predicted = 0.0;
  uint64_t examined = 0;
  const AccessBound bound = ctx.predictor->PickBound(ctx.now);
  for (size_t i = 0; i < window.size(); ++i) {
    const QueuedRequest& req = window[i];
    const bool is_write = req.op == DiskOp::kWrite;
    const double age_credit = AgeCredit(ctx.now, req.arrival_us);
    const size_t candidates = all_replicas_ ? req.candidates.size() : 1;
    for (size_t c = 0; c < candidates; ++c) {
      const QueueCandidate& cand = req.candidates[c];
      // The bound is evaluated per replica, not once per entry: replicas
      // normally share a cylinder, but a latent-bad-sector remap can move one
      // to spare space on a different cylinder. Aged cost >= bound - credit,
      // so a bound beaten by best_aged even after the credit cannot win.
      if (BoundExceeds(bound, cand.pos, req.sectors, is_write, age_credit,
                       best_aged)) {
        continue;
      }
      const CandidateCost cost = CostOf(ctx, req, cand.lba);
      ++examined;
      const double aged = cost.effective_us - age_credit;
      if (aged < best_aged) {
        best_aged = aged;
        best_predicted = cost.predicted_us;
        best = i;
        best_lba = cand.lba;
      }
    }
  }
  if (ctx.collector != nullptr) {
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined,
                                   /*keys_visited=*/0);
  }
  return SchedulerPick{best, best_lba, best_predicted};
}

SchedulerPick SatfScheduler::Walk(const DriveQueue& queue, size_t scan,
                                  const ScheduleContext& ctx) {
  const std::span<const QueuedRequest> entries = queue.entries();
  // The index holds exactly the window's candidates.
  const std::span<const DriveQueue::Key> keys = queue.keys();
  // No windowed entry earns more credit than the oldest one.
  SimTime oldest = entries[0].arrival_us;
  if (age_weight_ != 0.0) {
    for (const QueuedRequest& req : entries.first(scan)) {
      oldest = std::min(oldest, req.arrival_us);
    }
  }
  const double max_credit = AgeCredit(ctx.now, oldest);
  const AccessBound bound = ctx.predictor->PickBound(ctx.now);
  const uint32_t head = bound.head_cylinder();

  size_t best = 0;
  BlockAddr best_lba = entries[0].primary();
  double best_aged = std::numeric_limits<double>::infinity();
  double best_predicted = 0.0;
  uint32_t best_seq = UINT32_MAX;
  uint32_t best_candidate = UINT32_MAX;
  uint64_t examined = 0;
  uint64_t visited = 0;
  // keys[up] is the nearest unvisited key at or above the head's cylinder,
  // keys[down - 1] the nearest below it.
  size_t up = static_cast<size_t>(
      std::partition_point(keys.begin(), keys.end(),
                           [head](const DriveQueue::Key& k) {
                             return k.cylinder() < head;
                           }) -
      keys.begin());
  size_t down = up;
  uint32_t floor_distance = UINT32_MAX;
  double floor_us = 0.0;
  while (up < keys.size() || down > 0) {
    // Visit the nearer frontier; every unvisited key is at least as far.
    const bool take_up =
        down == 0 || (up < keys.size() && keys[up].cylinder() - head <=
                                              head - keys[down - 1].cylinder());
    const DriveQueue::Key& key = take_up ? keys[up] : keys[down - 1];
    const uint32_t distance =
        take_up ? key.cylinder() - head : head - key.cylinder();
    if (distance != floor_distance) {
      floor_distance = distance;
      floor_us = bound.FloorUs(distance) - max_credit;
    }
    // The floor bounds the aged cost of every unvisited key from below, so
    // once it exceeds the best none of them can win or tie.
    if (floor_us > best_aged) {
      break;
    }
    if (take_up) {
      ++up;
    } else {
      --down;
    }
    ++visited;
    if (!all_replicas_ && key.candidate != 0) {
      continue;
    }
    // The key alone bounds the candidate; no entry earns more than
    // max_credit, so a key ruled out here is ruled out below too, and only
    // the keys that survive look up their entry.
    if (BoundExceeds(bound, key.pos, key.sectors, key.is_write, max_credit,
                     best_aged)) {
      continue;
    }
    const size_t i = queue.IndexOf(key.seq);
    const QueuedRequest& req = entries[i];
    const QueueCandidate& cand = req.candidates[key.candidate];
    const bool is_write = req.op == DiskOp::kWrite;
    const double age_credit = AgeCredit(ctx.now, req.arrival_us);
    // The bound is evaluated per replica, as in Scan. Aged cost >= bound -
    // credit, so a bound beaten by best_aged even after the credit cannot
    // win.
    if (age_credit != max_credit &&
        BoundExceeds(bound, cand.pos, req.sectors, is_write, age_credit,
                     best_aged)) {
      continue;
    }
    const CandidateCost cost = CostOf(ctx, req, cand.lba);
    ++examined;
    const double aged = cost.effective_us - age_credit;
    // Keys arrive in walk order, not scan order, so an exact tie goes to the
    // earlier entry and then the lower candidate, as Scan would take it.
    if (aged < best_aged ||
        (aged == best_aged &&
         (key.seq < best_seq ||
          (key.seq == best_seq && key.candidate < best_candidate)))) {
      best_aged = aged;
      best_predicted = cost.predicted_us;
      best = i;
      best_lba = cand.lba;
      best_seq = key.seq;
      best_candidate = key.candidate;
    }
  }
  if (ctx.collector != nullptr) {
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined, visited);
  }
  return SchedulerPick{best, best_lba, best_predicted};
}

SchedulerPick RlookScheduler::Pick(const DriveQueue& queue,
                                   const ScheduleContext& ctx) {
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  // LOOK chooses the request (all replicas of an entry share a cylinder);
  // the rotationally closest replica is then taken.
  const size_t i = PickIndex(queue.entries());
  const QueuedRequest& req = queue.entries()[i];
  const bool is_write = req.op == DiskOp::kWrite;
  BlockAddr best_lba = req.primary();
  CandidateCost best_cost{std::numeric_limits<double>::infinity(), 0.0};
  uint64_t examined = 0;
  const AccessBound bound = ctx.predictor->PickBound(ctx.now);
  for (const QueueCandidate& cand : req.candidates) {
    if (BoundExceeds(bound, cand.pos, req.sectors, is_write, /*credit=*/0.0,
                     best_cost.effective_us)) {
      continue;
    }
    const CandidateCost cost = CostOf(ctx, req, cand.lba);
    ++examined;
    if (cost.effective_us < best_cost.effective_us) {
      best_cost = cost;
      best_lba = cand.lba;
    }
  }
  if (ctx.collector != nullptr) {
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined,
                                   /*keys_visited=*/0);
  }
  return SchedulerPick{i, best_lba, best_cost.predicted_us};
}

}  // namespace mimdraid
