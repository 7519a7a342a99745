// Latency and throughput accounting for experiments.
#ifndef MIMDRAID_SRC_STATS_LATENCY_RECORDER_H_
#define MIMDRAID_SRC_STATS_LATENCY_RECORDER_H_

#include <cstdint>
#include <vector>

#include "src/util/summary.h"
#include "src/util/time.h"

namespace mimdraid {

// Records per-request response times; supports mean and percentile queries.
class LatencyRecorder {
 public:
  void Record(double latency_us) {
    summary_.Add(latency_us);
    samples_.push_back(latency_us);
    sorted_ = false;
  }

  uint64_t count() const { return summary_.count(); }
  double MeanUs() const { return summary_.mean(); }
  double MeanMs() const { return summary_.mean() / 1000.0; }
  double MaxUs() const { return summary_.max(); }

  // q in [0, 1]; e.g. 0.5 = median, 0.99 = P99.
  double PercentileUs(double q) const;

 private:
  Summary summary_;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = false;
};

// Completed-operations-per-second over an observation window. The window
// opens at Start(); querying Iops() before Start() returns 0 instead of
// silently measuring from simulated time zero (which would inflate or
// deflate the rate depending on when the caller began counting).
class ThroughputMeter {
 public:
  void Start(SimTime now) {
    start_us_ = now;
    completed_ = 0;
    started_ = true;
  }
  void RecordCompletion() { ++completed_; }
  uint64_t completed() const { return completed_; }
  bool started() const { return started_; }

  double Iops(SimTime now) const {
    if (!started_) {
      return 0.0;
    }
    const double secs = SecondsFromUs(now - start_us_);
    return secs <= 0.0 ? 0.0 : static_cast<double>(completed_) / secs;
  }

 private:
  SimTime start_us_;
  uint64_t completed_ = 0;
  bool started_ = false;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_STATS_LATENCY_RECORDER_H_
