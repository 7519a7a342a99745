// Latency accounting for experiments.
#ifndef MIMDRAID_SRC_STATS_LATENCY_RECORDER_H_
#define MIMDRAID_SRC_STATS_LATENCY_RECORDER_H_

#include <cstdint>
#include <vector>

#include "src/util/summary.h"

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

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_STATS_LATENCY_RECORDER_H_
