// Shared helpers for the table/figure reproduction benchmarks.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation section: it builds the workload, sweeps the same parameter axis,
// and prints the same rows/series the paper reports, plus the model curves
// where the paper shows them. Absolute values differ from the paper (our
// substrate is a calibrated simulator, not the authors' testbed); the series
// shapes and orderings are the reproduction target (see EXPERIMENTS.md).
#ifndef MIMDRAID_BENCH_BENCH_COMMON_H_
#define MIMDRAID_BENCH_BENCH_COMMON_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/mimd_raid.h"
#include "src/core/sweep_runner.h"
#include "src/model/configurator.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/trace_collector.h"
#include "src/util/check.h"
#include "src/util/flags.h"
#include "src/workload/synthetic.h"

namespace mimdraid {
namespace bench {

inline void PrintHeader(const char* id, const char* title) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==============================================================\n");
}

// ---------------------------------------------------------------------------
// Parallel sweep support.
//
// Every bench sweep is a grid of independent deterministic points. The
// conversion pattern is two passes over the same loop structure: pass one
// registers each measurement as a DeferredSweep point (in the exact order the
// serial code used to execute it), Run() executes them all on a SweepRunner
// pool, and pass two replays the original print loop consuming results with
// Next() — so stdout is byte-identical to the serial run for any job count.
// ---------------------------------------------------------------------------

// Requested worker count, set once in main() by InitBenchSweep() before any
// sweep runs and read-only afterwards (safe to read from workers).
inline size_t g_bench_jobs_request = 0;

// Number of the sweep point executing on this thread (-1 outside a point);
// gives per-point trace filenames their stable, thread-safe numbering.
// Points are numbered at Defer() time — main thread, original serial call
// order — and the counter spans every sweep in the process, so the numbering
// reproduces the old serial call-order numbering for any job count.
inline thread_local int tl_sweep_point_index = -1;
inline int g_sweep_point_counter = 0;  // main-thread only (Defer time)

// Parses --jobs N (0 = auto). Call first thing in main().
inline void InitBenchSweep(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int64_t jobs = flags.GetInt("jobs", 0);
  g_bench_jobs_request = jobs > 0 ? static_cast<size_t>(jobs) : 0;
}

// --jobs wins, then MIMDRAID_JOBS, then hardware_concurrency; 1 is the exact
// old serial path (points run inline on the main thread).
inline size_t BenchJobs() {
  return SweepRunner::ResolveJobs(g_bench_jobs_request);
}

template <typename R>
class DeferredSweep {
 public:
  // Registers one measurement point. It may run on any worker thread: it must
  // not print, and must not share mutable state with other points.
  void Defer(std::function<R()> fn) {
    const size_t index = results_.size();
    const int point_number = g_sweep_point_counter++;
    results_.emplace_back();
    tasks_.push_back([this, index, point_number, fn = std::move(fn)] {
      const int saved = tl_sweep_point_index;
      tl_sweep_point_index = point_number;
      results_[index] = fn();
      tl_sweep_point_index = saved;
    });
  }

  // Executes every deferred point (order of completion is unspecified;
  // results land in submission-order slots).
  void Run() {
    SweepRunner runner(BenchJobs());
    runner.RunAll(std::move(tasks_));
    tasks_.clear();
  }

  // Results in submission order, for the print pass.
  const R& Next() {
    MIMDRAID_CHECK_LT(next_, results_.size());
    return results_[next_++];
  }

 private:
  std::vector<std::function<void()>> tasks_;
  std::deque<R> results_;  // deque: slots stay put while Defer() grows it
  size_t next_ = 0;
};

struct TraceRunConfig {
  ArrayAspect aspect;
  SchedulerKind scheduler = SchedulerKind::kRsatf;
  double rate_scale = 1.0;
  size_t max_scan = 128;
  size_t max_outstanding = 4000;
  bool foreground_writes = false;
  uint64_t seed = 42;
};

struct TraceRunOutput {
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  double iops = 0.0;
  bool saturated = false;
};

// Opt-in per-run tracing: when MIMDRAID_TRACE_DIR names a directory, every
// RunTraceConfig call records the full request/disk-op timeline and writes it
// as Chrome trace-event JSON (trace_NNNN.json, one file per run) with a text
// summary on stderr. Inside a DeferredSweep point the file is numbered by the
// point index — stable across job counts and racefree, and identical to the
// old call-order numbering when each point makes one call (every converted
// bench does); outside a sweep a process-wide counter preserves call-order
// numbering. Unset (the default) leaves the collector pointer nullptr and the
// run byte-identical to an untraced one.
inline TraceRunOutput RunTraceConfig(const Trace& trace,
                                     const TraceRunConfig& config) {
  const char* trace_dir = std::getenv("MIMDRAID_TRACE_DIR");
  // mdl-ok(MDL005): this rig IS the harness; it owns the collector it lends
  std::unique_ptr<TraceCollector> collector;
  if (trace_dir != nullptr) {
    collector = std::make_unique<TraceCollector>();
  }
  MimdRaidOptions options;
  options.aspect = config.aspect;
  options.scheduler = config.scheduler;
  options.dataset_sectors = trace.dataset_sectors;
  options.max_scan = config.max_scan;
  options.foreground_write_propagation = config.foreground_writes;
  options.seed = config.seed;
  options.collector = collector.get();
  MimdRaid array(options);
  TracePlayerOptions popt;
  popt.rate_scale = config.rate_scale;
  popt.max_outstanding = config.max_outstanding;
  popt.collector = collector.get();
  const RunResult r = RunTraceOnArray(array, trace, popt);
  if (collector != nullptr) {
    // mdl-ok(MDL004): process-wide atomic file counter, documented above
    static std::atomic<int> seq{0};
    const int file_id = tl_sweep_point_index >= 0
                            ? tl_sweep_point_index
                            : seq.fetch_add(1, std::memory_order_relaxed);
    char path[512];
    std::snprintf(path, sizeof(path), "%s/trace_%04d.json", trace_dir,
                  file_id);
    if (WriteChromeTraceFile(*collector, path)) {
      std::fprintf(stderr, "[trace] wrote %s\n%s", path,
                   collector->Summary().c_str());
    } else {
      std::fprintf(stderr, "[trace] failed to write %s\n", path);
    }
  }
  TraceRunOutput out;
  out.saturated = r.saturated;
  out.mean_ms = r.saturated ? -1.0 : r.latency.MeanMs();
  out.p99_ms = r.saturated ? -1.0 : r.latency.PercentileUs(0.99) / 1000.0;
  out.iops = r.iops;
  return out;
}

inline std::string FormatMs(double ms) {
  if (ms < 0.0) {
    return "   sat";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%6.2f", ms);
  return buf;
}

// The standard drive and the model parameters the paper derives from it.
inline ModelDiskParams StandardModelParams(uint64_t dataset_sectors) {
  return ModelParamsForDataset(MakeSt39133Geometry(), MakeSt39133SeekProfile(),
                               dataset_sectors);
}

// Aspect shorthand.
inline ArrayAspect Aspect(int ds, int dr, int dm = 1) {
  ArrayAspect a;
  a.ds = ds;
  a.dr = dr;
  a.dm = dm;
  return a;
}

}  // namespace bench
}  // namespace mimdraid

#endif  // MIMDRAID_BENCH_BENCH_COMMON_H_
