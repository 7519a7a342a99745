// Experiment helpers shared by benchmarks, examples, and tests.
#ifndef MIMDRAID_SRC_CORE_EXPERIMENT_H_
#define MIMDRAID_SRC_CORE_EXPERIMENT_H_

#include <cstdint>

#include "src/cache/lru_cache.h"
#include "src/core/mimd_raid.h"
#include "src/workload/drivers.h"
#include "src/model/disk_params.h"
#include "src/workload/trace.h"

namespace mimdraid {

ModelDiskParams ModelParamsForDataset(const DiskGeometry& geometry,
                                      const SeekProfile& profile,
                                      uint64_t dataset_sectors);

// Replays `trace` against the array and reports latency/throughput.
RunResult RunTraceOnArray(MimdRaid& array, const Trace& trace,
                          const TracePlayerOptions& options = {});

// Runs the Iometer-style closed loop against the array.
RunResult RunClosedLoopOnArray(MimdRaid& array, ClosedLoopOptions options);

// Replays `trace` with an LRU memory cache in front of the array (Figure 11).
// Cache hits cost 50 us; misses and all writes go to the array.
RunResult RunTraceWithCache(MimdRaid& array, const Trace& trace,
                            uint64_t cache_bytes,
                            const TracePlayerOptions& options = {});

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_CORE_EXPERIMENT_H_
