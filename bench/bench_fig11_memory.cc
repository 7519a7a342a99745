// Figure 11: memory caching vs scaling the number of disks.
//
// Two ways to spend money on the same workload: add disks to a
// model-configured SR-Array, or add an LRU memory cache in front of the
// smallest array. Reported at original speed and at 3x, as in the paper. The
// crossover logic (the paper's "M" price ratio) falls out of the two series:
// caching wins while locality lasts; adding disks keeps helping after the
// cache stops absorbing misses and writes.
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"

using namespace mimdraid;
using namespace mimdraid::bench;

namespace {

ArrayAspect SrChoice(const Trace& trace, int disks, double locality) {
  const ModelDiskParams p = StandardModelParams(trace.dataset_sectors);
  ConfiguratorInputs in;
  in.num_disks = disks;
  in.max_seek_us = p.max_seek_us;
  in.rotation_us = p.rotation_us;
  in.p = 0.95;
  in.queue_depth = 1.0;
  in.locality = locality;
  return ChooseConfig(in).aspect;
}

double RunDisks(const Trace& trace, int disks, double scale, double locality) {
  TraceRunConfig cfg;
  cfg.aspect = SrChoice(trace, disks, locality);
  cfg.scheduler = SchedulerKind::kRsatf;
  cfg.rate_scale = scale;
  cfg.max_outstanding = 2500;
  return RunTraceConfig(trace, cfg).mean_ms;
}

double RunCache(const Trace& trace, int disks, uint64_t cache_mb, double scale,
                double locality) {
  MimdRaidOptions options;
  options.aspect = SrChoice(trace, disks, locality);
  options.scheduler = SchedulerKind::kRsatf;
  options.dataset_sectors = trace.dataset_sectors;
  options.max_scan = 128;
  MimdRaid array(options);
  TracePlayerOptions popt;
  popt.rate_scale = scale;
  popt.max_outstanding = 2500;
  const RunResult r =
      RunTraceWithCache(array, trace, cache_mb << 20, popt);
  return r.saturated ? -1.0 : r.latency.MeanMs();
}

void Workload(const char* label, const Trace& trace, int base_disks,
              const std::vector<int>& disk_points,
              const std::vector<uint64_t>& cache_points_mb) {
  const TraceStats stats = ComputeTraceStats(trace);
  std::printf("\n%s\n", label);
  for (double scale : {1.0, 3.0}) {
    std::printf("  scale %.0fx — adding disks (SR-Array):\n    ", scale);
    for (int d : disk_points) {
      std::printf("D=%d: %s  ", d,
                  FormatMs(RunDisks(trace, d, scale, stats.seek_locality))
                      .c_str());
    }
    std::printf("\n  scale %.0fx — adding memory to %d disk(s):\n    ", scale,
                base_disks);
    for (uint64_t mb : cache_points_mb) {
      std::printf("%lluMB: %s  ", static_cast<unsigned long long>(mb),
                  FormatMs(RunCache(trace, base_disks, mb, scale,
                                    stats.seek_locality))
                      .c_str());
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  PrintHeader("Figure 11", "Memory caching vs scaling disks (mean ms)");
  Workload("(a) Cello base",
           GenerateSyntheticTrace(CelloBaseParams(/*duration_s=*/3600, 71)),
           /*base_disks=*/1, {1, 2, 4, 6, 12}, {16, 64, 128, 336, 512});
  Workload("(b) TPC-C",
           GenerateSyntheticTrace(TpccParams(/*duration_s=*/60, 72)),
           /*base_disks=*/12, {12, 18, 24, 36}, {64, 256, 512, 1024});
  std::printf(
      "\npaper shape: on Cello, a few hundred MB of cache matches doubling\n"
      "the disks at 1x but flattens at 3x (writes + diminishing locality);\n"
      "on TPC-C caching is the better first dollar at 1x, while at 3x disks\n"
      "keep helping after the cache plateaus.\n");
  return 0;
}
