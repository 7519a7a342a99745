// Synthetic trace generation.
//
// The paper evaluates on the HP Cello '92 traces and a TPC-C disk trace,
// neither of which is redistributable. These generators produce traces whose
// Table 3 characteristics (I/O rate, read fraction, async-write fraction,
// seek locality L, read-after-recent-write fraction, footprint) match the
// originals; the Section 2 models — and therefore the configuration
// decisions under test — consume exactly these aggregate characteristics.
//
// Locality model: with probability 1/L a request jumps to a fresh location
// (uniform or hot-spot draw); otherwise it stays near the previous request
// (short exponential jump or sequential continuation). Since near jumps
// contribute almost nothing to mean inter-request distance, the observed
// locality index lands at ~L by construction. Hot spots follow a Zipf
// distribution over blocks, which also produces read-after-write reuse.
#ifndef MIMDRAID_SRC_WORKLOAD_SYNTHETIC_H_
#define MIMDRAID_SRC_WORKLOAD_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/workload/trace.h"

namespace mimdraid {

struct SyntheticTraceParams {
  std::string name;
  uint64_t dataset_sectors = 0;
  double duration_s = 0.0;
  double io_per_s = 0.0;
  double read_frac = 0.55;
  double async_write_frac = 0.0;  // fraction of *all* I/Os
  double target_locality = 1.0;   // L
  double hot_theta = 0.9;         // Zipf skew of fresh-location draws
  double hot_frac = 0.5;          // probability a fresh draw uses the Zipf
  double sequential_frac = 0.5;   // near draws that continue sequentially
  // Fraction of reads that re-reference recently touched data (recency-biased
  // draw over the access history). This is the temporal locality an LRU
  // cache exploits (Figure 11); it also contributes read-after-write reuse.
  double reref_frac = 0.0;
  // Include writes in the re-reference history (database-style page reuse,
  // which raises the read-after-write ratio, vs file-cache reuse of reads).
  bool reref_includes_writes = false;
  // (sectors, weight) request-size mixture; sizes should be powers of two.
  std::vector<std::pair<uint32_t, double>> size_dist = {{16, 1.0}};
  // Async writes are emitted in periodic bursts (the 30 s sync daemon);
  // 0 keeps them Poisson like everything else.
  double sync_burst_period_s = 30.0;
  uint64_t seed = 1;
};

Trace GenerateSyntheticTrace(const SyntheticTraceParams& params);

// Presets matching the Table 3 rows (duration shortened from the originals;
// rates and mix preserved).
SyntheticTraceParams CelloBaseParams(double duration_s, uint64_t seed);
SyntheticTraceParams CelloDisk6Params(double duration_s, uint64_t seed);
SyntheticTraceParams TpccParams(double duration_s, uint64_t seed);

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_WORKLOAD_SYNTHETIC_H_
