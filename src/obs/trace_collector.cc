#include "src/obs/trace_collector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/obs/stats_registry.h"
#include "src/util/check.h"

namespace mimdraid {

void TraceCollector::Observe(SimTime t) {
  if (!span_valid_) {
    span_start_ = t;
    span_end_ = t;
    span_valid_ = true;
    return;
  }
  span_start_ = std::min(span_start_, t);
  span_end_ = std::max(span_end_, t);
}

void TraceCollector::OnRequestArrival(uint64_t id, bool is_write, uint64_t lba,
                                      uint32_t sectors, SimTime now) {
  Observe(now);
  RequestRecord& rec = open_[id];
  rec.id = id;
  rec.is_write = is_write;
  rec.lba = lba;
  rec.sectors = sectors;
  rec.arrival_us = now;
}

void TraceCollector::OnRequestComplete(uint64_t id, IoStatus status,
                                       SimTime completion_us,
                                       uint32_t recovery_attempts,
                                       const FinalLeg* leg) {
  auto it = open_.find(id);
  MIMDRAID_CHECK(it != open_.end());
  RequestRecord rec = it->second;
  open_.erase(it);
  Observe(completion_us);
  rec.completion_us = completion_us;
  rec.status = status;
  rec.recovery_attempts = recovery_attempts;

  const double e2e = rec.EndToEndUs();
  PhaseBreakdown& p = rec.phases;
  if (leg != nullptr) {
    p.queue_us = leg->disk_start_us >= leg->entry_arrival_us
                     ? static_cast<double>(
                           (leg->disk_start_us - leg->entry_arrival_us).us())
                     : 0.0;
    p.overhead_us = leg->overhead_us;
    p.seek_us = leg->seek_us;
    p.rotational_us = leg->rotational_us;
    p.transfer_us = leg->transfer_us;
  }
  // Exact residual: whatever the final leg does not explain (backoff,
  // failover re-queues, earlier plan phases, and sub-µs rounding of the
  // integer completion timestamp). Guarantees SumUs() == EndToEndUs().
  p.recovery_us = e2e - p.queue_us - p.overhead_us - p.seek_us -
                  p.rotational_us - p.transfer_us;
  requests_.push_back(std::move(rec));
}

void TraceCollector::OnDiskOp(const DiskOpRecord& rec) {
  Observe(rec.start_us);
  Observe(rec.completion_us);
  num_slots_ = std::max(num_slots_, rec.slot + 1);
  disk_ops_.push_back(rec);
}

void TraceCollector::OnQueueDepth(uint32_t slot, SimTime now, size_t depth) {
  Observe(now);
  num_slots_ = std::max(num_slots_, slot + 1);
  queue_depths_.push_back(
      QueueDepthSample{slot, now, static_cast<uint32_t>(depth)});
}

void TraceCollector::OnPrediction(uint32_t slot, SimTime now,
                                  double predicted_us, double actual_us) {
  Observe(now);
  num_slots_ = std::max(num_slots_, slot + 1);
  predictions_.push_back(PredictionSample{slot, now, predicted_us, actual_us});
}

void TraceCollector::OnSchedulerScan(uint32_t slot, uint64_t candidates_examined,
                                     uint64_t keys_visited) {
  num_slots_ = std::max(num_slots_, slot + 1);
  ++scheduler_picks_;
  scheduler_candidates_ += candidates_examined;
  scheduler_keys_ += keys_visited;
}

void TraceCollector::OnMarker(const std::string& name, SimTime now) {
  Observe(now);
  markers_.push_back(TraceMarker{name, now});
}

PhaseBreakdown TraceCollector::MeanPhases() const {
  PhaseBreakdown mean;
  if (requests_.empty()) {
    return mean;
  }
  for (const RequestRecord& r : requests_) {
    mean.queue_us += r.phases.queue_us;
    mean.overhead_us += r.phases.overhead_us;
    mean.seek_us += r.phases.seek_us;
    mean.rotational_us += r.phases.rotational_us;
    mean.transfer_us += r.phases.transfer_us;
    mean.recovery_us += r.phases.recovery_us;
  }
  const double n = static_cast<double>(requests_.size());
  mean.queue_us /= n;
  mean.overhead_us /= n;
  mean.seek_us /= n;
  mean.rotational_us /= n;
  mean.transfer_us /= n;
  mean.recovery_us /= n;
  return mean;
}

PredictionErrorSummary TraceCollector::PredictionError() const {
  PredictionErrorSummary s;
  if (predictions_.empty()) {
    return s;
  }
  double sum = 0.0;
  double sum_abs = 0.0;
  double sum_sq = 0.0;
  for (const PredictionSample& p : predictions_) {
    const double e = p.ErrorUs();
    sum += e;
    sum_abs += std::abs(e);
    sum_sq += e * e;
    s.max_abs_error_us = std::max(s.max_abs_error_us, std::abs(e));
  }
  const double n = static_cast<double>(predictions_.size());
  s.samples = predictions_.size();
  s.mean_error_us = sum / n;
  s.mean_abs_error_us = sum_abs / n;
  s.rms_error_us = std::sqrt(sum_sq / n);
  return s;
}

double TraceCollector::FractionPredictedWithin(double threshold_us) const {
  if (predictions_.empty()) {
    return 0.0;
  }
  uint64_t within = 0;
  for (const PredictionSample& p : predictions_) {
    if (std::abs(p.ErrorUs()) <= threshold_us) {
      ++within;
    }
  }
  return static_cast<double>(within) /
         static_cast<double>(predictions_.size());
}

std::vector<SlotSummary> TraceCollector::SlotSummaries() const {
  std::vector<SlotSummary> slots(num_slots_);
  for (const DiskOpRecord& op : disk_ops_) {
    SlotSummary& s = slots[op.slot];
    ++s.ops;
    if (op.status != IoStatus::kOk) {
      ++s.failed_ops;
    }
    s.busy_us += static_cast<double>((op.completion_us - op.start_us).us());
  }
  return slots;
}

std::string TraceCollector::Summary() const {
  std::string out;
  char line[256];
  const SimDuration span = span_end_ - span_start_;
  std::snprintf(line, sizeof(line),
                "trace: %zu requests, %zu disk ops, %zu queue samples, "
                "span %.3f s\n",
                requests_.size(), disk_ops_.size(), queue_depths_.size(),
                static_cast<double>(span.us()) / 1e6);
  out += line;

  if (!requests_.empty()) {
    double mean_e2e = 0.0;
    for (const RequestRecord& r : requests_) {
      mean_e2e += r.EndToEndUs();
    }
    mean_e2e /= static_cast<double>(requests_.size());
    const PhaseBreakdown m = MeanPhases();
    std::snprintf(line, sizeof(line),
                  "phases (mean µs): queue %.1f + overhead %.1f + seek %.1f + "
                  "rotation %.1f + transfer %.1f + recovery %.1f = %.1f "
                  "(e2e %.1f)\n",
                  m.queue_us, m.overhead_us, m.seek_us, m.rotational_us,
                  m.transfer_us, m.recovery_us, m.SumUs(), mean_e2e);
    out += line;
  }

  const PredictionErrorSummary pe = PredictionError();
  if (pe.samples > 0) {
    std::snprintf(line, sizeof(line),
                  "prediction: %llu samples, mean err %+.1f µs, "
                  "mean |err| %.1f µs, rms %.1f µs, max |err| %.1f µs\n",
                  static_cast<unsigned long long>(pe.samples),
                  pe.mean_error_us, pe.mean_abs_error_us, pe.rms_error_us,
                  pe.max_abs_error_us);
    out += line;
  }
  if (scheduler_picks_ > 0) {
    std::snprintf(line, sizeof(line),
                  "scheduler: %llu picks, %.1f candidates examined per pick\n",
                  static_cast<unsigned long long>(scheduler_picks_),
                  static_cast<double>(scheduler_candidates_) /
                      static_cast<double>(scheduler_picks_));
    out += line;
  }

  const std::vector<SlotSummary> slots = SlotSummaries();
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].ops == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "slot %2zu: %8llu ops (%llu failed), utilization %.1f%%\n",
                  i, static_cast<unsigned long long>(slots[i].ops),
                  static_cast<unsigned long long>(slots[i].failed_ops),
                  100.0 * slots[i].Utilization(span));
    out += line;
  }
  return out;
}

void TraceCollector::ExportTo(StatsRegistry* registry) const {
  MIMDRAID_CHECK(registry != nullptr);
  registry->Set("trace.requests", static_cast<double>(requests_.size()));
  registry->Set("trace.disk_ops", static_cast<double>(disk_ops_.size()));
  registry->Set("trace.span_us",
                static_cast<double>((span_end_ - span_start_).us()));
  const PhaseBreakdown m = MeanPhases();
  registry->Set("trace.phase.queue_us", m.queue_us);
  registry->Set("trace.phase.overhead_us", m.overhead_us);
  registry->Set("trace.phase.seek_us", m.seek_us);
  registry->Set("trace.phase.rotational_us", m.rotational_us);
  registry->Set("trace.phase.transfer_us", m.transfer_us);
  registry->Set("trace.phase.recovery_us", m.recovery_us);
  const PredictionErrorSummary pe = PredictionError();
  registry->Set("trace.prediction.samples", static_cast<double>(pe.samples));
  registry->Set("trace.prediction.mean_error_us", pe.mean_error_us);
  registry->Set("trace.prediction.mean_abs_error_us", pe.mean_abs_error_us);
  registry->Set("trace.prediction.rms_error_us", pe.rms_error_us);
  registry->Set("trace.scheduler.picks",
                static_cast<double>(scheduler_picks_));
  const std::vector<SlotSummary> slots = SlotSummaries();
  const SimDuration span = span_end_ - span_start_;
  for (size_t i = 0; i < slots.size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "trace.slot.%02zu.utilization", i);
    registry->Set(name, slots[i].Utilization(span));
  }
}

void TraceCollector::Clear() {
  requests_.clear();
  disk_ops_.clear();
  queue_depths_.clear();
  predictions_.clear();
  markers_.clear();
  open_.clear();
  scheduler_picks_ = 0;
  scheduler_candidates_ = 0;
  scheduler_keys_ = 0;
  num_slots_ = 0;
  span_start_ = SimTime();
  span_end_ = SimTime();
  span_valid_ = false;
}

}  // namespace mimdraid
