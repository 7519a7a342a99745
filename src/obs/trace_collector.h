// Per-request tracing and service-time breakdown (the observability layer).
//
// The paper's claims are about *where* latency goes — seek vs rotational
// delay vs transfer (Sections 2-3) — and how accurately the software
// predictor anticipates it (Section 3.2, Table 2). The TraceCollector records
// exactly that attribution at runtime: per-request lifecycle events with the
// seek/rotational/transfer split SimDisk already computes, per-slot
// utilization and queue-depth time series, scheduler prediction error
// (predicted SchedulerPick cost vs actual service time), and fault-recovery
// time per request.
//
// Wiring follows the borrowed-observer pattern of InvariantAuditor: each
// component holds a raw TraceCollector* (nullptr = disabled) and guards every
// report with a null check. The collector never influences a scheduling or
// recovery decision, and with no collector attached the hot paths reduce to
// one pointer compare — measured results and determinism are unchanged.
#ifndef MIMDRAID_SRC_OBS_TRACE_COLLECTOR_H_
#define MIMDRAID_SRC_OBS_TRACE_COLLECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/sim/io_status.h"
#include "src/util/time.h"

namespace mimdraid {

class StatsRegistry;

// Where a request's end-to-end response time went. queue/overhead/seek/
// rotational/transfer describe the *final leg* — the disk sub-operation whose
// completion completed the request; recovery_us is the exact residual of the
// end-to-end latency not attributable to that leg: retry backoff, failover
// re-queues, duplicate races, and earlier phases of multi-phase plans (e.g.
// the read half of a RAID-5 read-modify-write). By construction
// SumUs() == end-to-end latency; on the fault-free mirror path recovery_us is
// only integer-rounding noise (|recovery_us| < 1 µs).
struct PhaseBreakdown {
  double queue_us = 0.0;       // final leg: enqueue -> disk start
  double overhead_us = 0.0;    // command/bus/controller processing
  double seek_us = 0.0;
  double rotational_us = 0.0;
  double transfer_us = 0.0;
  double recovery_us = 0.0;    // residual (recovery, re-queues, prior phases)

  double SumUs() const {
    return queue_us + overhead_us + seek_us + rotational_us + transfer_us +
           recovery_us;
  }
};

// The disk sub-operation whose completion completed a logical request, as the
// controller saw it. entry_arrival_us is when the winning queue entry was
// enqueued (its QueuedRequest::arrival_us); the remaining fields come from
// the DiskOpResult ground-truth decomposition.
struct FinalLeg {
  SimTime entry_arrival_us;
  SimTime disk_start_us;
  double overhead_us = 0.0;
  double seek_us = 0.0;
  double rotational_us = 0.0;
  double transfer_us = 0.0;
};

// One logical request, arrival through completion.
struct RequestRecord {
  uint64_t id = 0;
  bool is_write = false;
  uint64_t lba = 0;
  uint32_t sectors = 0;
  SimTime arrival_us;
  SimTime completion_us;
  IoStatus status = IoStatus::kOk;
  uint32_t recovery_attempts = 0;
  PhaseBreakdown phases;

  double EndToEndUs() const {
    return static_cast<double>((completion_us - arrival_us).us());
  }
};

// One physical disk command, with its ground-truth service decomposition.
struct DiskOpRecord {
  uint32_t slot = 0;
  bool is_write = false;
  uint64_t lba = 0;
  uint32_t sectors = 0;
  IoStatus status = IoStatus::kOk;
  SimTime start_us;
  SimTime completion_us;
  double overhead_us = 0.0;
  double seek_us = 0.0;
  double rotational_us = 0.0;
  double transfer_us = 0.0;
};

struct QueueDepthSample {
  uint32_t slot = 0;
  SimTime t_us;
  uint32_t depth = 0;
};

// Predicted dispatch cost vs the service time the disk actually delivered
// (kOk completions only) — the runtime analogue of the paper's Table 2.
struct PredictionSample {
  uint32_t slot = 0;
  SimTime t_us;          // completion time of the dispatched command
  double predicted_us = 0.0;
  double actual_us = 0.0;

  double ErrorUs() const { return actual_us - predicted_us; }
};

struct TraceMarker {
  std::string name;
  SimTime t_us;
};

// Per-slot rollup over the recorded disk ops.
struct SlotSummary {
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  double busy_us = 0.0;  // sum of service times

  double Utilization(SimDuration span_us) const {
    return span_us > SimDuration(0)
               ? busy_us / static_cast<double>(span_us.us())
               : 0.0;
  }
};

struct PredictionErrorSummary {
  uint64_t samples = 0;
  double mean_error_us = 0.0;      // signed: actual - predicted
  double mean_abs_error_us = 0.0;
  double rms_error_us = 0.0;
  double max_abs_error_us = 0.0;
};

class TraceCollector {
 public:
  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // --- Controller-side request lifecycle ---------------------------------
  void OnRequestArrival(uint64_t id, bool is_write, uint64_t lba,
                        uint32_t sectors, SimTime now);
  // `leg` describes the disk sub-op that completed the request; nullptr when
  // no such leg exists (unrecoverable completions, lost replicas), in which
  // case the whole end-to-end latency is booked as recovery_us.
  void OnRequestComplete(uint64_t id, IoStatus status, SimTime completion_us,
                         uint32_t recovery_attempts, const FinalLeg* leg);

  // --- Per-slot events ---------------------------------------------------
  void OnDiskOp(const DiskOpRecord& rec);
  void OnQueueDepth(uint32_t slot, SimTime now, size_t depth);
  void OnPrediction(uint32_t slot, SimTime now, double predicted_us,
                    double actual_us);
  // One pick: `candidates_examined` full predictions, `keys_visited` keys of
  // the queue's cylinder index walked (0 for a scheduler that walks none).
  void OnSchedulerScan(uint32_t slot, uint64_t candidates_examined,
                       uint64_t keys_visited);
  void OnMarker(const std::string& name, SimTime now);

  // --- Raw series --------------------------------------------------------
  const std::vector<RequestRecord>& requests() const { return requests_; }
  const std::vector<DiskOpRecord>& disk_ops() const { return disk_ops_; }
  const std::vector<QueueDepthSample>& queue_depths() const {
    return queue_depths_;
  }
  const std::vector<PredictionSample>& predictions() const {
    return predictions_;
  }
  const std::vector<TraceMarker>& markers() const { return markers_; }
  // Requests whose arrival was recorded but whose completion has not been.
  size_t open_requests() const { return open_.size(); }
  uint64_t scheduler_picks() const { return scheduler_picks_; }
  uint64_t scheduler_candidates_examined() const {
    return scheduler_candidates_;
  }
  uint64_t scheduler_keys_visited() const { return scheduler_keys_; }
  uint32_t num_slots() const { return num_slots_; }

  // --- Summaries ---------------------------------------------------------
  // Observed time span: first recorded event to last recorded completion.
  SimTime SpanStartUs() const { return span_start_; }
  SimTime SpanEndUs() const { return span_end_; }
  PhaseBreakdown MeanPhases() const;
  PredictionErrorSummary PredictionError() const;
  // Fraction of prediction samples with |actual - predicted| <= threshold.
  double FractionPredictedWithin(double threshold_us) const;
  std::vector<SlotSummary> SlotSummaries() const;
  // Compact multi-line text report (phases, prediction error, per-slot
  // utilization).
  std::string Summary() const;
  // Publishes the summary numbers as named scalars.
  void ExportTo(StatsRegistry* registry) const;

  void Clear();

 private:
  void Observe(SimTime t);

  std::vector<RequestRecord> requests_;
  std::vector<DiskOpRecord> disk_ops_;
  std::vector<QueueDepthSample> queue_depths_;
  std::vector<PredictionSample> predictions_;
  std::vector<TraceMarker> markers_;
  std::unordered_map<uint64_t, RequestRecord> open_;
  uint64_t scheduler_picks_ = 0;
  uint64_t scheduler_candidates_ = 0;
  uint64_t scheduler_keys_ = 0;
  uint32_t num_slots_ = 0;
  SimTime span_start_;
  SimTime span_end_;
  bool span_valid_ = false;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_OBS_TRACE_COLLECTOR_H_
