// Host-throughput benchmark for the MimdRAID simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each run repeats one deterministic simulation ("rep") of the named workload
// until --seconds of host time have passed, and reports the fastest host times
// the identical reps achieved (see SegmentedRunTime and HostTime). A rep
// generates the workload's inputs from the seed, assembles a MimdRaid, and
// drives it through the public stack:
//
//   TracePlayer / ClosedLoopDriver -> ArrayBackend::Submit -> DriveSet ->
//   scheduler -> SimDisk -> Simulator
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// alternates untraced reps with traced ones (a TraceCollector attached, the
// SubmitFn and IoDoneFn wrapped in host timers) and reports per-layer
// metrics. Every layer number is measured from outside the library: host
// timers around public calls, plus the library's own public observers.
//
// Every rep of a seed must produce the same simulated results, traced or not;
// that and the per-workload output checks decide "correct". The last line of
// stdout is one JSON object; the exit code is non-zero when a check fails.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/mimd_raid.h"
#include "src/obs/stats_registry.h"
#include "src/obs/trace_collector.h"
#include "src/workload/drivers.h"
#include "src/workload/synthetic.h"

namespace mimdraid {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// SplitMix64: independent per-purpose seeds from the one --seed argument.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL +
               0x94D049BB133111EBULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

enum SeedStream : uint64_t {
  kTraceSeed = 1,
  kLoopSeed,
  kArraySeed,
  kFaultSeed,
};

// One benchmark workload. Replay workloads set trace_base_s; closed-loop
// workloads set outstanding/measure_ops. Why each exists is in README.md.
struct Workload {
  std::string_view name;
  ArrayBackendKind backend = ArrayBackendKind::kMirror;
  int ds = 1;
  int dr = 1;
  SchedulerKind scheduler = SchedulerKind::kSatf;
  uint64_t dataset_sectors = 0;  // 0: the trace's footprint
  // Open-loop replay of CelloBaseParams.
  double trace_base_s = 0.0;
  double rate_scale = 1.0;
  // Closed loop.
  uint32_t outstanding = 0;
  double read_frac = 1.0;
  uint64_t warmup_ops = 0;
  uint64_t measure_ops = 0;
  // Fail slot 0, rebuild it under load, inject transient media errors.
  bool degraded = false;
};

constexpr uint32_t kSectors4K = 8;

const Workload kWorkloads[] = {
    {.name = "cello_sr",
     .backend = ArrayBackendKind::kMirror,
     .ds = 2,
     .dr = 3,
     .scheduler = SchedulerKind::kRsatf,
     .trace_base_s = 9'600.0,
     .rate_scale = 300.0},
    {.name = "deepq_mixed",
     .backend = ArrayBackendKind::kMirror,
     .ds = 2,
     .dr = 3,
     .scheduler = SchedulerKind::kRsatf,
     .dataset_sectors = 8'000'000,
     .outstanding = 64,
     .read_frac = 0.7,
     .warmup_ops = 2'000,
     .measure_ops = 40'000},
    {.name = "raid5_rmw",
     .backend = ArrayBackendKind::kRaid5,
     .ds = 6,
     .dr = 1,
     .scheduler = SchedulerKind::kSatf,
     .dataset_sectors = 8'000'000,
     .outstanding = 16,
     .read_frac = 0.5,
     .warmup_ops = 2'000,
     .measure_ops = 60'000},
    {.name = "ec_degraded",
     .backend = ArrayBackendKind::kErasure,
     .ds = 6,
     .dr = 1,
     .scheduler = SchedulerKind::kSatf,
     .dataset_sectors = 8'000'000,
     .outstanding = 16,
     .read_frac = 0.7,
     .warmup_ops = 2'000,
     .measure_ops = 60'000,
     .degraded = true},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

// Run() is timed in segments of this many submitted requests; see
// SegmentedRunTime.
constexpr uint64_t kSegmentRequests = 1000;

// Host-side spans around the calls the benchmark makes into the library
// during a traced rep.
struct HostSpans {
  double submit_s = 0.0;     // inside ArrayBackend::Submit
  double done_self_s = 0.0;  // inside the driver's completion callbacks,
                             // minus the Submit calls they make
};

// Everything one rep measured.
struct Rep {
  double gen_s = 0.0;    // input generation (GenerateSyntheticTrace)
  double build_s = 0.0;  // MimdRaid constructor (+ failure/rebuild kick-off)
  double run_s = 0.0;    // inside the driver's Run()
  // Run() split at every kSegmentRequests-th Submit: the host seconds of each
  // segment, in order. Every rep of a seed has the same segments.
  std::vector<double> segments_s;
  uint64_t offered = 0;  // requests the driver handed to Submit or dropped
  uint64_t completed = 0;
  uint64_t failed = 0;   // non-kOk completions
  uint64_t dropped = 0;  // replay records never submitted (saturation)
  bool saturated = false;
  double sim_outstanding_mean = 0.0;
  uint64_t events = 0;
  uint64_t disk_ops = 0;  // disk commands completed
  double mean_ms = 0.0;
  double p99_ms = 0.0;
  double sim_iops = 0.0;
  bool fail_accepted = true;
  bool rebuild_covered_run = true;
  StatsRegistry stats;  // ExportStats (+ ExportTo when traced)
  uint64_t digest = 0;
  // Traced reps only.
  HostSpans spans;
  uint64_t picks = 0;
  uint64_t candidates = 0;
  double queue_depth_mean = 0.0;
  double util_mean = 0.0;
  PhaseBreakdown phases;
};

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  // 53 bits, so the JSON number round-trips exactly.
  uint64_t Value() const { return h_ >> 11; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

// Time-weighted mean queue depth per slot, averaged over the slots sampled.
double QueueDepthMean(const TraceCollector& collector) {
  const uint32_t slots = collector.num_slots();
  std::vector<double> integral(slots, 0.0);
  std::vector<int64_t> last_t(slots, -1);
  std::vector<uint32_t> last_depth(slots, 0);
  for (const QueueDepthSample& s : collector.queue_depths()) {
    if (last_t[s.slot] >= 0) {
      integral[s.slot] += static_cast<double>(last_depth[s.slot]) *
                          static_cast<double>(s.t_us.us() - last_t[s.slot]);
    }
    last_t[s.slot] = s.t_us.us();
    last_depth[s.slot] = s.depth;
  }
  const int64_t end = collector.SpanEndUs().us();
  const double span =
      static_cast<double>(end - collector.SpanStartUs().us());
  double sum = 0.0;
  uint32_t sampled = 0;
  for (uint32_t i = 0; i < slots; ++i) {
    if (last_t[i] < 0) {
      continue;
    }
    integral[i] += static_cast<double>(last_depth[i]) *
                   static_cast<double>(end - last_t[i]);
    sum += integral[i];
    ++sampled;
  }
  return sampled > 0 && span > 0.0 ? sum / (span * sampled) : 0.0;
}

MimdRaidOptions ArrayOptions(const Workload& w, uint64_t seed,
                             uint64_t dataset_sectors,
                             TraceCollector* collector) {
  MimdRaidOptions options;
  options.backend = w.backend;
  options.aspect.ds = w.ds;
  options.aspect.dr = w.dr;
  options.aspect.dm = 1;
  options.parity_shards = 2;
  options.scheduler = w.scheduler;
  options.dataset_sectors = dataset_sectors;
  options.use_oracle_predictor = true;
  options.seed = DeriveSeed(seed, kArraySeed);
  if (w.degraded) {
    options.enable_fault_injection = true;
    options.fault.seed = DeriveSeed(seed, kFaultSeed);
    options.fault.transient_error_prob = 1e-3;
  }
  options.collector = collector;
  return options;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// A workload's inputs and assembled array, ready to run.
struct Setup {
  std::optional<Trace> trace;
  std::unique_ptr<MimdRaid> array;
  bool fail_accepted = true;
  bool rebuilt = false;  // set by the rebuild's completion callback
  double gen_s = 0.0;
  double build_s = 0.0;
};

std::unique_ptr<Setup> MakeSetup(const Workload& w, uint64_t seed,
                                 TraceCollector* collector) {
  auto setup = std::make_unique<Setup>();
  const Clock::time_point t0 = Clock::now();
  if (w.trace_base_s > 0.0) {
    setup->trace = GenerateSyntheticTrace(
        CelloBaseParams(w.trace_base_s, DeriveSeed(seed, kTraceSeed)));
  }
  const Clock::time_point t1 = Clock::now();
  const uint64_t dataset = setup->trace.has_value()
                               ? setup->trace->dataset_sectors
                               : w.dataset_sectors;
  setup->array =
      std::make_unique<MimdRaid>(ArrayOptions(w, seed, dataset, collector));
  if (w.degraded) {
    ArrayBackend& backend = setup->array->backend();
    setup->fail_accepted = backend.FailDisk(SlotId(0));
    bool* rebuilt = &setup->rebuilt;
    backend.Rebuild(SlotId(0), [rebuilt](const IoResult&) { *rebuilt = true; });
  }
  const Clock::time_point t2 = Clock::now();
  setup->gen_s = SecondsBetween(t0, t1);
  setup->build_s = SecondsBetween(t1, t2);
  return setup;
}

Rep RunRep(const Workload& w, uint64_t seed, bool traced) {
  Rep rep;
  std::unique_ptr<TraceCollector> collector;
  if (traced) {
    collector = std::make_unique<TraceCollector>();
  }

  // Set-up costs from microseconds (parity arrays) to tens of milliseconds
  // (trace generation). Cheap set-ups are repeated, untraced and discarded,
  // until kSetupBudgetS is spent, so the rep's set-up time is a median of
  // many rather than one tick.
  constexpr double kSetupBudgetS = 0.02;
  constexpr size_t kMaxSetups = 1000;
  std::unique_ptr<Setup> setup = MakeSetup(w, seed, collector.get());
  std::vector<double> gen_s = {setup->gen_s};
  std::vector<double> build_s = {setup->build_s};
  const Clock::time_point timing_start = Clock::now();
  while (gen_s.size() < kMaxSetups &&
         SecondsBetween(timing_start, Clock::now()) < kSetupBudgetS) {
    const std::unique_ptr<Setup> extra = MakeSetup(w, seed, nullptr);
    gen_s.push_back(extra->gen_s);
    build_s.push_back(extra->build_s);
  }
  rep.gen_s = Median(std::move(gen_s));
  rep.build_s = Median(std::move(build_s));
  rep.fail_accepted = setup->fail_accepted;
  const std::optional<Trace>& trace = setup->trace;
  MimdRaid& array = *setup->array;

  // The SubmitFn the driver sees. Untraced: a plain forward plus an issue
  // count, for the conservation check and the segment marks. Traced: also
  // host timers around Submit and around each completion callback (self
  // time, excluding nested Submits).
  ArrayBackend* backend = &array.backend();
  uint64_t issued = 0;
  Clock::time_point segment_start;
  auto count_issue = [&issued, &segment_start, &rep] {
    if (++issued % kSegmentRequests == 0) {
      const Clock::time_point now = Clock::now();
      rep.segments_s.push_back(SecondsBetween(segment_start, now));
      segment_start = now;
    }
  };
  HostSpans* spans = &rep.spans;
  SubmitFn submit;
  if (!traced) {
    submit = [backend, &count_issue](DiskOp op, uint64_t lba,
                                     uint32_t sectors, IoDoneFn done) {
      count_issue();
      backend->Submit(op, lba, sectors, std::move(done));
    };
  } else {
    submit = [backend, &count_issue, spans](DiskOp op, uint64_t lba,
                                            uint32_t sectors, IoDoneFn done) {
      count_issue();
      IoDoneFn timed = [spans, inner = std::move(done)](const IoResult& r) {
        const double nested_before = spans->submit_s;
        const Clock::time_point a = Clock::now();
        inner(r);
        const Clock::time_point b = Clock::now();
        spans->done_self_s +=
            SecondsBetween(a, b) - (spans->submit_s - nested_before);
      };
      const Clock::time_point a = Clock::now();
      backend->Submit(op, lba, sectors, std::move(timed));
      spans->submit_s += SecondsBetween(a, Clock::now());
    };
  }

  RunResult result;
  const Clock::time_point t3 = Clock::now();
  segment_start = t3;
  if (trace.has_value()) {
    TracePlayerOptions popt;
    popt.rate_scale = w.rate_scale;
    popt.collector = collector.get();
    TracePlayer player(&array.sim(), &*trace, std::move(submit), popt);
    result = player.Run();
    rep.offered = trace->records.size();
  } else {
    ClosedLoopOptions loop;
    loop.outstanding = w.outstanding;
    loop.read_frac = w.read_frac;
    loop.sectors = kSectors4K;
    loop.dataset_sectors = w.dataset_sectors;
    loop.warmup_ops = w.warmup_ops;
    loop.measure_ops = w.measure_ops;
    loop.seed = DeriveSeed(seed, kLoopSeed);
    loop.collector = collector.get();
    ClosedLoopDriver driver(&array.sim(), std::move(submit), loop);
    result = driver.Run();
    rep.offered = issued;
  }
  const Clock::time_point t4 = Clock::now();
  rep.run_s = SecondsBetween(t3, t4);
  rep.segments_s.push_back(SecondsBetween(segment_start, t4));

  rep.completed = result.completed;
  rep.failed = result.failed;
  rep.dropped = result.dropped;
  rep.saturated = result.saturated;
  rep.sim_outstanding_mean = result.mean_outstanding;
  rep.events = array.sim().events_fired();
  for (size_t i = 0; i < array.num_disks(); ++i) {
    rep.disk_ops += array.disk(i).ops_completed();
  }
  rep.mean_ms = result.latency.MeanMs();
  rep.p99_ms = result.latency.PercentileUs(0.99) / 1000.0;
  rep.sim_iops = result.iops;
  if (w.degraded) {
    rep.rebuild_covered_run =
        !setup->rebuilt && array.backend().RebuildInProgress();
  }
  array.backend().ExportStats(&rep.stats);

  // Identity of the simulated outcome; must not depend on tracing.
  Fnv fnv;
  fnv.Add(rep.completed);
  fnv.Add(rep.failed);
  fnv.Add(rep.dropped);
  fnv.Add(static_cast<uint64_t>(result.elapsed_us.us()));
  fnv.Add(rep.events);
  fnv.Add(rep.disk_ops);
  fnv.Add(result.latency.count());
  fnv.Add(result.latency.MeanUs());
  fnv.Add(result.latency.MaxUs());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    fnv.Add(result.latency.PercentileUs(q));
  }
  for (const auto& [name, value] : rep.stats.values()) {
    fnv.Add(value);
  }
  rep.digest = fnv.Value();

  if (traced) {
    collector->ExportTo(&rep.stats);
    rep.picks = collector->scheduler_picks();
    rep.candidates = collector->scheduler_candidates_examined();
    rep.queue_depth_mean = QueueDepthMean(*collector);
    const SimDuration span = collector->SpanEndUs() - collector->SpanStartUs();
    double util = 0.0;
    size_t slots = 0;
    for (const SlotSummary& s : collector->SlotSummaries()) {
      if (s.ops > 0) {
        util += s.Utilization(span);
        ++slots;
      }
    }
    rep.util_mean = slots > 0 ? util / static_cast<double>(slots) : 0.0;
    rep.phases = collector->MeanPhases();
  }
  return rep;
}

// A run's host time for one quantity: the fastest rep's. Every rep does
// identical work, and other processes on the host only ever slow a rep, in
// phases lasting seconds, so the fastest rep is the steadiest estimate of the
// program's own cost.
template <typename F>
double HostTime(const std::vector<Rep>& reps, F f) {
  double fastest = reps.empty() ? 0.0 : f(reps.front());
  for (const Rep& r : reps) {
    fastest = std::min(fastest, f(r));
  }
  return fastest;
}

// A run's Run() time, built from the fastest observation of each segment.
// Noise on a shared host comes in bursts shorter than a rep as well as
// longer ones; taking each segment's minimum across the identical reps
// discards bursts that the fastest whole rep would still contain.
double SegmentedRunTime(const std::vector<Rep>& reps) {
  if (reps.empty()) {
    return 0.0;
  }
  std::vector<double> fastest = reps.front().segments_s;
  for (const Rep& r : reps) {
    if (r.segments_s.size() != fastest.size()) {
      return HostTime(reps, [](const Rep& x) { return x.run_s; });
    }
    for (size_t k = 0; k < fastest.size(); ++k) {
      fastest[k] = std::min(fastest[k], r.segments_s[k]);
    }
  }
  double total = 0.0;
  for (double s : fastest) {
    total += s;
  }
  return total;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// This process's peak RSS. VmHWM, not getrusage(): Linux carries ru_maxrss
// across exec, so it would report the launching process's footprint.
double PeakRssMb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Output checks over every rep of a run. Each violation is printed; any
// violation makes the run incorrect.
class Checker {
 public:
  void Expect(bool ok, const char* what, size_t rep) {
    if (!ok) {
      std::printf("CHECK FAILED (rep %zu): %s\n", rep, what);
      ok_ = false;
    }
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

void CheckReps(const Workload& w, const std::vector<Rep>& reps,
               Checker* checker) {
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    if (w.trace_base_s > 0.0) {
      checker->Expect(r.completed + r.dropped == r.offered,
                      "replay conservation: completed + dropped == offered",
                      i);
      checker->Expect(!r.saturated && r.dropped == 0,
                      "replay kept up with the offered rate (nothing dropped)",
                      i);
    } else {
      checker->Expect(r.completed == r.offered,
                      "closed loop: every issued request completed", i);
    }
    checker->Expect(r.failed == 0, "no non-kOk completions", i);
    checker->Expect(r.stats.Get("fault.unrecoverable_completions") == 0.0,
                    "no kUnrecoverable completions", i);
    if (w.degraded) {
      checker->Expect(r.fail_accepted, "FailDisk(0) accepted", i);
      checker->Expect(r.rebuild_covered_run,
                      "rebuild of slot 0 still running when the load ends",
                      i);
      checker->Expect(r.stats.Get("ec.degraded_reads") > 0.0,
                      "degraded reads were served", i);
      checker->Expect(r.stats.Get("fault.media_errors_seen") > 0.0,
                      "transient media errors were injected", i);
    }
    // Every rep simulates the same seed: traced or not, it must reproduce
    // the first rep's simulated outcome exactly.
    checker->Expect(r.digest == reps[0].digest,
                    "simulated results identical across reps (traced and "
                    "untraced)",
                    i);
    checker->Expect(r.events == reps[0].events,
                    "sim.events identical across reps (traced and untraced)",
                    i);
    checker->Expect(r.segments_s.size() == reps[0].segments_s.size(),
                    "same timed segments in every rep", i);
  }
}

std::vector<Metric> EndToEndMetrics(const std::vector<Rep>& reps,
                                    double peak_rss_mb) {
  return {
      {"req_per_s",
       Ratio(static_cast<double>(reps.front().completed),
             SegmentedRunTime(reps)),
       "1/s"},
      {"setup_s", HostTime(reps, [](const Rep& r) { return r.gen_s + r.build_s; }),
       "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const std::vector<Rep>& untraced,
                                    const std::vector<Rep>& traced,
                                    const std::vector<Rep>& all,
                                    double traced_peak_rss_mb) {
  const Rep& t = traced.front();
  auto stat = [&t](const char* name) { return t.stats.Get(name); };
  const double untraced_run_s = SegmentedRunTime(untraced);
  const double traced_run_s = SegmentedRunTime(traced);
  const double submit_s = HostTime(traced, [](const Rep& r) { return r.spans.submit_s; });
  const double done_self_s =
      HostTime(traced, [](const Rep& r) { return r.spans.done_self_s; });
  const double completed = static_cast<double>(t.completed);
  const double events = static_cast<double>(t.events);
  return {
      {"workload.gen_s", HostTime(all, [](const Rep& r) { return r.gen_s; }), "s"},
      {"workload.offered", static_cast<double>(t.offered), "count"},
      {"workload.dropped", static_cast<double>(t.dropped), "count"},
      {"workload.sim_outstanding_mean", t.sim_outstanding_mean, "count"},
      {"workload.done_self_s", done_self_s, "s"},
      {"core.build_s", HostTime(all, [](const Rep& r) { return r.build_s; }), "s"},
      {"io.submit_s", submit_s, "s"},
      {"io.submit_share", Ratio(submit_s, traced_run_s), "ratio"},
      {"io.disk_ops", static_cast<double>(t.disk_ops), "count"},
      {"io.disk_ops_per_req", Ratio(static_cast<double>(t.disk_ops), completed),
       "ratio"},
      {"io.retries", stat("fault.retries_issued"), "count"},
      {"io.media_errors", stat("fault.media_errors_seen"), "count"},
      {"sched.picks", static_cast<double>(t.picks), "count"},
      {"sched.plans_per_pick",
       Ratio(static_cast<double>(t.candidates), static_cast<double>(t.picks)),
       "ratio"},
      {"sched.queue_depth_mean", t.queue_depth_mean, "count"},
      {"array.delayed_completed", stat("array.delayed_writes_completed"), "count"},
      {"array.delayed_forced", stat("array.delayed_writes_forced"), "count"},
      {"array.delayed_discarded", stat("array.delayed_writes_discarded"), "count"},
      {"array.parked_reads", stat("array.parked_reads"), "count"},
      {"array.delayed_backlog", stat("array.delayed_backlog"), "count"},
      {"raid5.rmw_writes", stat("raid5.rmw_writes"), "count"},
      {"raid5.full_stripe_writes", stat("raid5.full_stripe_writes"), "count"},
      {"ec.rmw_writes", stat("ec.rmw_writes"), "count"},
      {"ec.reconstruct_writes", stat("ec.reconstruct_writes"), "count"},
      {"ec.degraded_reads", stat("ec.degraded_reads"), "count"},
      {"ec.degraded_writes", stat("ec.degraded_writes"), "count"},
      {"ec.rebuilt_rows", stat("ec.rebuilt_rows"), "count"},
      {"disk.util_mean", t.util_mean, "ratio"},
      {"disk.queue_ms", t.phases.queue_us / 1000.0, "ms"},
      {"disk.seek_ms", t.phases.seek_us / 1000.0, "ms"},
      {"disk.rotation_ms", t.phases.rotational_us / 1000.0, "ms"},
      {"disk.transfer_ms", t.phases.transfer_us / 1000.0, "ms"},
      {"sim.events", events, "count"},
      {"sim.events_per_req", Ratio(events, completed), "ratio"},
      {"sim.ns_per_event", Ratio(untraced_run_s * 1e9, events), "ns"},
      {"obs.untraced_run_s", untraced_run_s, "s"},
      {"obs.traced_run_s", traced_run_s, "s"},
      {"obs.trace_overhead", Ratio(traced_run_s, untraced_run_s), "ratio"},
      {"obs.traced_peak_rss_mb", traced_peak_rss_mb, "MB"},
      {"result.mean_ms", t.mean_ms, "ms"},
      {"result.p99_ms", t.p99_ms, "ms"},
      {"result.sim_iops", t.sim_iops, "1/s"},
      {"result.digest", static_cast<double>(t.digest), "hash"},
  };
}

bool OptimizedBuild() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  return flags.find("-O0") == std::string::npos &&
         (flags.find("-O1") != std::string::npos ||
          flags.find("-O2") != std::string::npos ||
          flags.find("-O3") != std::string::npos ||
          flags.find("-Os") != std::string::npos);
}

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

int Main(int argc, char** argv) {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = FindWorkload(value);
      if (workload == nullptr) {
        Usage("unknown workload");
      }
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else {
      Usage("unknown flag");
    }
  }
  if (workload == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    Usage("missing or invalid arguments");
  }

  const bool optimized = OptimizedBuild();
  std::printf("build: type=%s compiler=\"%s\" flags=\"%s\" optimized=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS,
              optimized ? "yes" : "NO (timings are not comparable)");
  std::fflush(stdout);

  // Reps until the time budget is spent; a floor on the count keeps the
  // fastest-rep estimate meaningful, a ceiling on elapsed time keeps slow
  // hosts bounded.
  constexpr size_t kMinReps = 3;
  constexpr double kMaxSeconds = 150.0;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::vector<Rep> all;
  // Peak RSS once the first rep of each kind has run. Later reps repeat the
  // same allocations, but heap fragmentation lets the high-water mark creep
  // with their count, which would tie the number to host speed.
  double peak_rss_mb = 0.0;
  double traced_peak_rss_mb = 0.0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    const double elapsed = SecondsBetween(start, Clock::now());
    const size_t floor_count = trace == 1 ? 2 * kMinReps : kMinReps;
    if (all.size() >= floor_count &&
        (elapsed >= seconds ||
         elapsed + elapsed / static_cast<double>(all.size()) > kMaxSeconds)) {
      break;
    }
    const bool traced_rep = trace == 1 && i % 2 == 1;
    Rep rep = RunRep(*workload, seed, traced_rep);
    std::fprintf(stderr,
                 "rep %zu%s: gen %.4f s, build %.4f s, run %.4f s, "
                 "%llu requests, %llu events\n",
                 i, traced_rep ? " (traced)" : "", rep.gen_s, rep.build_s,
                 rep.run_s, static_cast<unsigned long long>(rep.completed),
                 static_cast<unsigned long long>(rep.events));
    double& peak = traced_rep ? traced_peak_rss_mb : peak_rss_mb;
    if (peak == 0.0) {
      peak = PeakRssMb();
    }
    (traced_rep ? traced : untraced).push_back(rep);
    all.push_back(std::move(rep));
  }

  Checker checker;
  CheckReps(*workload, all, &checker);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Rep& r : all) {
    attempted += r.offered;
    const uint64_t settled = r.completed + r.dropped;
    failed += r.failed + r.dropped +
              (r.offered > settled ? r.offered - settled : 0);
  }
  const std::vector<Metric> metrics =
      trace == 1
          ? PerLayerMetrics(untraced, traced, all, traced_peak_rss_mb)
          : EndToEndMetrics(untraced, peak_rss_mb);

  std::printf("workload=%.*s seed=%llu reps=%zu (traced %zu) measured %.2f s\n",
              static_cast<int>(workload->name.size()), workload->name.data(),
              static_cast<unsigned long long>(seed), all.size(), traced.size(),
              SecondsBetween(start, Clock::now()));
  for (const Metric& m : metrics) {
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  const bool correct = checker.ok() && failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mimdraid

int main(int argc, char** argv) { return mimdraid::Main(argc, argv); }
