// mimdraid_cli: run an arbitrary array configuration against an arbitrary
// workload from the command line — the "try it on your workload" entry point.
//
// Examples:
//   ./mimdraid_cli --disks=6 --auto --workload=cello --report
//   ./mimdraid_cli --ds=2 --dr=3 --sched=rsatf --workload=random
//       --read-frac=0.7 --outstanding=16 --ops=5000
//   ./mimdraid_cli --ds=9 --dr=4 --workload=tpcc --rate-scale=3
//   ./mimdraid_cli --disks=6 --auto --trace=/tmp/my.trace
#include <cstdio>
#include <string>

#include "src/core/experiment.h"
#include "src/core/mimd_raid.h"
#include "src/model/configurator.h"
#include "src/util/flags.h"
#include "src/workload/synthetic.h"
#include "src/workload/trace_io.h"

using namespace mimdraid;

namespace {

void Usage() {
  std::printf(
      "mimdraid_cli — SR-Array simulator\n\n"
      "array shape (pick one):\n"
      "  --ds=N --dr=N [--dm=N]   explicit Ds x Dr x Dm aspect\n"
      "  --disks=N --auto         let the Section 2 models configure N disks\n"
      "options:\n"
      "  --sched=fcfs|sstf|look|clook|satf|asatf|rlook|rsatf  (default rsatf)\n"
      "  --dataset-gb=F           logical capacity (default 4)\n"
      "  --noisy                  realistic overhead jitter + software\n"
      "                           calibration (default: ideal + oracle)\n"
      "workload (pick one):\n"
      "  --workload=random [--read-frac=F --outstanding=N --ops=N --size=SECT]\n"
      "  --workload=cello|cello6|tpcc [--rate-scale=F --minutes=N]\n"
      "  --trace=PATH             replay a saved trace file\n"
      "output:\n"
      "  --report                 print model analysis alongside measurement\n");
}

SchedulerKind ParseSched(const std::string& s) {
  if (s == "fcfs") return SchedulerKind::kFcfs;
  if (s == "sstf") return SchedulerKind::kSstf;
  if (s == "look") return SchedulerKind::kLook;
  if (s == "clook") return SchedulerKind::kClook;
  if (s == "satf") return SchedulerKind::kSatf;
  if (s == "asatf") return SchedulerKind::kAsatf;
  if (s == "rlook") return SchedulerKind::kRlook;
  if (s == "rsatf") return SchedulerKind::kRsatf;
  std::fprintf(stderr, "unknown scheduler '%s'\n", s.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.Has("help")) {
    Usage();
    return 0;
  }

  const uint64_t dataset_sectors = static_cast<uint64_t>(
      flags.GetDouble("dataset-gb", 4.0) * 1e9 / 512.0);

  // --- Workload. ---
  Trace trace;
  bool have_trace = false;
  const std::string workload = flags.GetString("workload", "random");
  const double minutes = flags.GetDouble("minutes", 60.0);
  if (flags.Has("trace")) {
    if (!LoadTrace(flags.GetString("trace", ""), &trace)) {
      std::fprintf(stderr, "cannot load trace\n");
      return 2;
    }
    have_trace = true;
  } else if (workload == "cello") {
    trace = GenerateSyntheticTrace(CelloBaseParams(minutes * 60.0, 1));
    have_trace = true;
  } else if (workload == "cello6") {
    trace = GenerateSyntheticTrace(CelloDisk6Params(minutes * 60.0, 1));
    have_trace = true;
  } else if (workload == "tpcc") {
    trace = GenerateSyntheticTrace(TpccParams(minutes * 60.0, 1));
    have_trace = true;
  } else if (workload != "random") {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  const uint64_t dataset =
      have_trace ? trace.dataset_sectors : dataset_sectors;

  // --- Array shape. ---
  ArrayAspect aspect;
  const ModelDiskParams model_params = ModelParamsForDataset(
      MakeSt39133Geometry(), MakeSt39133SeekProfile(), dataset);
  TraceStats stats;
  if (have_trace) {
    stats = ComputeTraceStats(trace);
  }
  if (flags.GetBool("auto", false)) {
    ConfiguratorInputs in;
    in.num_disks = static_cast<int>(flags.GetInt("disks", 6));
    in.max_seek_us = model_params.max_seek_us;
    in.rotation_us = model_params.rotation_us;
    in.p = have_trace ? 0.9 + 0.1 * stats.read_frac
                      : flags.GetDouble("read-frac", 1.0);
    in.queue_depth = have_trace
                         ? 1.0
                         : static_cast<double>(flags.GetInt("outstanding", 8)) /
                               in.num_disks;
    in.locality = have_trace ? stats.seek_locality : 1.0;
    aspect = ChooseConfig(in).aspect;
    std::printf("model-chosen aspect for %d disks: %s\n", in.num_disks,
                aspect.ToString().c_str());
  } else {
    aspect.ds = static_cast<int>(flags.GetInt("ds", 1));
    aspect.dr = static_cast<int>(flags.GetInt("dr", 1));
    aspect.dm = static_cast<int>(flags.GetInt("dm", 1));
  }

  MimdRaidOptions options;
  options.aspect = aspect;
  options.scheduler = ParseSched(flags.GetString("sched", "rsatf"));
  options.dataset_sectors = dataset;
  options.max_scan = 128;
  if (flags.GetBool("noisy", false)) {
    options.noise = DiskNoiseModel::Prototype();
    options.use_oracle_predictor = false;
    options.recalibration_interval_us = SimDuration(120'000'000);
    options.calibration_seek_distances = 12;
  }
  MimdRaid array(options);

  // --- Run. ---
  RunResult result;
  if (have_trace) {
    TracePlayerOptions popt;
    popt.rate_scale = flags.GetDouble("rate-scale", 1.0);
    result = RunTraceOnArray(array, trace, popt);
  } else {
    ClosedLoopOptions loop;
    loop.outstanding = static_cast<uint32_t>(flags.GetInt("outstanding", 8));
    loop.read_frac = flags.GetDouble("read-frac", 1.0);
    loop.sectors = static_cast<uint32_t>(flags.GetInt("size", 16));
    loop.measure_ops = static_cast<uint64_t>(flags.GetInt("ops", 4000));
    result = RunClosedLoopOnArray(array, loop);
  }

  // --- Report. ---
  std::printf("\n%s on %s, %zu disk(s), dataset %.1f GB\n",
              SchedulerKindName(options.scheduler),
              aspect.ToString().c_str(), array.num_disks(),
              dataset * 512.0 / 1e9);
  if (result.saturated) {
    std::printf("SATURATED: the array cannot sustain the offered rate\n");
    return 1;
  }
  std::printf("  completed:   %llu ops\n",
              static_cast<unsigned long long>(result.completed));
  std::printf("  mean:        %.2f ms   p50 %.2f / p95 %.2f / p99 %.2f ms\n",
              result.latency.MeanMs(),
              result.latency.PercentileUs(0.50) / 1000.0,
              result.latency.PercentileUs(0.95) / 1000.0,
              result.latency.PercentileUs(0.99) / 1000.0);
  std::printf("  throughput:  %.0f IOPS (mean outstanding %.1f)\n",
              result.iops, result.mean_outstanding);

  if (flags.GetBool("report", false)) {
    std::printf("\nmodel analysis (Section 2):\n");
    ConfiguratorInputs in;
    in.num_disks = aspect.TotalDisks();
    in.max_seek_us = model_params.max_seek_us;
    in.rotation_us = model_params.rotation_us;
    in.p = have_trace ? 0.9 + 0.1 * stats.read_frac : 1.0;
    in.queue_depth = std::max(1.0, result.mean_outstanding /
                                       aspect.TotalDisks());
    in.locality = have_trace ? stats.seek_locality : 1.0;
    for (const ConfigCandidate& c : EnumerateConfigs(in)) {
      std::printf("  %-8s predicted %.2f ms%s\n", c.aspect.ToString().c_str(),
                  c.predicted_latency_us / 1000.0,
                  c.aspect.ds == aspect.ds && c.aspect.dr == aspect.dr &&
                          c.aspect.dm == aspect.dm
                      ? "   <- current"
                      : "");
    }
  }
  return 0;
}
