#include "src/sched/basic_schedulers.h"

#include <cstdlib>
#include <limits>

#include "src/util/check.h"

namespace mimdraid {
namespace {

uint32_t PrimaryCylinder(const QueuedRequest& req) {
  return req.candidates.front().pos.cylinder;
}

}  // namespace

SchedulerPick FcfsScheduler::Pick(std::span<const QueuedRequest> queue,
                                  const ScheduleContext& ctx) {
  (void)ctx;
  MIMDRAID_CHECK(!queue.empty());
  size_t best = 0;
  for (size_t i = 1; i < queue.size(); ++i) {
    if (queue[i].arrival_us < queue[best].arrival_us) {
      best = i;
    }
  }
  return SchedulerPick{best, queue[best].primary(), 0.0};
}

SchedulerPick SstfScheduler::Pick(std::span<const QueuedRequest> queue,
                                  const ScheduleContext& ctx) {
  MIMDRAID_CHECK(!queue.empty());
  MIMDRAID_CHECK(ctx.predictor != nullptr);
  const uint32_t head_cyl = ctx.predictor->Head().cylinder;
  size_t best = 0;
  BlockAddr best_lba = queue[0].primary();
  uint32_t best_dist = std::numeric_limits<uint32_t>::max();
  for (size_t i = 0; i < queue.size(); ++i) {
    for (const QueueCandidate& c : queue[i].candidates) {
      const uint32_t cyl = c.pos.cylinder;
      const uint32_t dist = cyl > head_cyl ? cyl - head_cyl : head_cyl - cyl;
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
        best_lba = c.lba;
      }
    }
  }
  return SchedulerPick{best, best_lba, 0.0};
}

size_t LookScheduler::PickIndex(std::span<const QueuedRequest> queue) {
  MIMDRAID_CHECK(!queue.empty());
  // Two passes at most: current direction, then the reverse.
  for (int attempt = 0; attempt < 2; ++attempt) {
    size_t best = queue.size();
    uint32_t best_cyl = 0;
    SimTime best_arrival;
    for (size_t i = 0; i < queue.size(); ++i) {
      const uint32_t cyl = PrimaryCylinder(queue[i]);
      const bool eligible = direction_ > 0 ? cyl >= current_cylinder_
                                           : cyl <= current_cylinder_;
      if (!eligible) {
        continue;
      }
      const bool closer = direction_ > 0 ? cyl < best_cyl : cyl > best_cyl;
      if (best == queue.size() || closer ||
          (cyl == best_cyl && queue[i].arrival_us < best_arrival)) {
        best = i;
        best_cyl = cyl;
        best_arrival = queue[i].arrival_us;
      }
    }
    if (best != queue.size()) {
      current_cylinder_ = best_cyl;
      return best;
    }
    direction_ = -direction_;
  }
  MIMDRAID_CHECK(false);  // queue non-empty: one direction must have a request
}

SchedulerPick LookScheduler::Pick(std::span<const QueuedRequest> queue,
                                  const ScheduleContext& ctx) {
  (void)ctx;
  const size_t i = PickIndex(queue);
  return SchedulerPick{i, queue[i].primary(), 0.0};
}

SchedulerPick ClookScheduler::Pick(std::span<const QueuedRequest> queue,
                                   const ScheduleContext& ctx) {
  (void)ctx;
  MIMDRAID_CHECK(!queue.empty());
  // Forward sweep; wrap to the smallest outstanding cylinder.
  size_t best = queue.size();
  uint32_t best_cyl = 0;
  size_t wrap_best = 0;
  uint32_t wrap_cyl = std::numeric_limits<uint32_t>::max();
  for (size_t i = 0; i < queue.size(); ++i) {
    const uint32_t cyl = PrimaryCylinder(queue[i]);
    if (cyl >= current_cylinder_ && (best == queue.size() || cyl < best_cyl)) {
      best = i;
      best_cyl = cyl;
    }
    if (cyl < wrap_cyl) {
      wrap_best = i;
      wrap_cyl = cyl;
    }
  }
  if (best == queue.size()) {
    best = wrap_best;
    best_cyl = wrap_cyl;
  }
  current_cylinder_ = best_cyl;
  return SchedulerPick{best, queue[best].primary(), 0.0};
}

}  // namespace mimdraid
