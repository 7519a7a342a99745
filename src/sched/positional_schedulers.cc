#include "src/sched/positional_schedulers.h"

#include <algorithm>
#include <limits>

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
bool BoundExceeds(const AccessBound& bound, const QueueCandidate& cand,
                  uint32_t sectors, bool is_write, double credit,
                  double best) {
  const double seek = bound.SeekUs(cand.pos, is_write);
  return bound.Us(seek, sectors) - credit > best ||
         bound.Us(std::max(seek, bound.WaitUs(cand.pos)), sectors) - credit >
             best;
}

}  // namespace

// Pruning in the Pick loops below must be *exact*: the figure goldens lock
// the chosen requests byte for byte, so a candidate may be skipped only when
// it provably cannot change the outcome. All comparisons against the running
// best use strict `<` ("first strictly smaller wins"), so a candidate whose
// cost lower bound exceeds the current best can neither win nor retie —
// skipping its full prediction leaves the scan's result bit-identical. The
// scan order itself is never reordered. Each Pick builds the predictor's
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

SchedulerPick SatfScheduler::Pick(std::span<const QueuedRequest> queue,
                                  const ScheduleContext& ctx) {
  MIMDRAID_CHECK(!queue.empty());
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  const size_t scan = max_scan_ == 0 ? queue.size()
                                     : std::min(max_scan_, queue.size());
  size_t best = 0;
  BlockAddr best_lba = queue[0].primary();
  double best_aged = std::numeric_limits<double>::infinity();
  double best_predicted = 0.0;
  uint64_t examined = 0;
  const AccessBound bound = ctx.predictor->PickBound(ctx.now);
  for (size_t i = 0; i < scan; ++i) {
    const QueuedRequest& req = queue[i];
    const bool is_write = req.op == DiskOp::kWrite;
    // A zero weight makes the credit +-0.0, and subtracting it is exact, so
    // SATF and RSATF rank by the plain slack-adjusted cost.
    const double age_credit =
        age_weight_ * static_cast<double>((ctx.now - req.arrival_us).us());
    const size_t candidates = all_replicas_ ? req.candidates.size() : 1;
    for (size_t c = 0; c < candidates; ++c) {
      const QueueCandidate& cand = req.candidates[c];
      // The bound is evaluated per replica, not once per entry: replicas
      // normally share a cylinder, but a latent-bad-sector remap can move one
      // to spare space on a different cylinder. Aged cost >= bound - credit,
      // so a bound beaten by best_aged even after the credit cannot win.
      if (BoundExceeds(bound, cand, req.sectors, is_write, age_credit,
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
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  }
  return SchedulerPick{best, best_lba, best_predicted};
}

SchedulerPick RlookScheduler::Pick(std::span<const QueuedRequest> queue,
                                   const ScheduleContext& ctx) {
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  // LOOK chooses the request (all replicas of an entry share a cylinder);
  // the rotationally closest replica is then taken.
  const size_t i = PickIndex(queue);
  const QueuedRequest& req = queue[i];
  const bool is_write = req.op == DiskOp::kWrite;
  BlockAddr best_lba = req.primary();
  CandidateCost best_cost{std::numeric_limits<double>::infinity(), 0.0};
  uint64_t examined = 0;
  const AccessBound bound = ctx.predictor->PickBound(ctx.now);
  for (const QueueCandidate& cand : req.candidates) {
    if (BoundExceeds(bound, cand, req.sectors, is_write, /*credit=*/0.0,
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
    ctx.collector->OnSchedulerScan(ctx.disk.value(), examined);
  }
  return SchedulerPick{i, best_lba, best_cost.predicted_us};
}

}  // namespace mimdraid
