#include <gtest/gtest.h>

#include "src/core/experiment.h"
#include "src/core/mimd_raid.h"
#include "src/model/analytic.h"
#include "src/obs/trace_collector.h"
#include "src/workload/synthetic.h"

namespace mimdraid {
namespace {

MimdRaidOptions BaseOptions(int ds, int dr, int dm,
                            SchedulerKind sched = SchedulerKind::kRsatf) {
  MimdRaidOptions o;
  o.aspect.ds = ds;
  o.aspect.dr = dr;
  o.aspect.dm = dm;
  o.scheduler = sched;
  o.dataset_sectors = 2'000'000;  // ~1 GB: fits every aspect under test
  o.seed = 77;
  return o;
}

ClosedLoopOptions ReadLoop(uint32_t outstanding, uint64_t ops = 1500) {
  ClosedLoopOptions c;
  c.outstanding = outstanding;
  c.read_frac = 1.0;
  c.sectors = 1;
  c.warmup_ops = 100;
  c.measure_ops = ops;
  return c;
}

TEST(MimdRaid, ConstructsAllDegenerateShapes) {
  for (auto [ds, dr, dm] : {std::tuple{1, 1, 1}, {4, 1, 1}, {1, 1, 4},
                            {2, 2, 1}, {2, 1, 2}, {1, 2, 2}}) {
    MimdRaid array(BaseOptions(ds, dr, dm));
    EXPECT_EQ(array.num_disks(), static_cast<size_t>(ds * dr * dm));
  }
}

TEST(MimdRaid, SingleDiskReadLatencyIsPlausible) {
  MimdRaid array(BaseOptions(1, 1, 1, SchedulerKind::kFcfs));
  const RunResult r = RunClosedLoopOnArray(array, ReadLoop(1, 800));
  // One random read: overhead (~350) + seek + ~R/2 rotation + transfer.
  EXPECT_GT(r.latency.MeanUs(), 3000.0);
  EXPECT_LT(r.latency.MeanUs(), 9000.0);
}

TEST(MimdRaid, RotationalReplicationCutsRotationalDelay) {
  MimdRaid plain(BaseOptions(1, 1, 1, SchedulerKind::kSatf));
  MimdRaid replicated(BaseOptions(1, 2, 1, SchedulerKind::kRsatf));
  const RunResult a = RunClosedLoopOnArray(plain, ReadLoop(1));
  const RunResult b = RunClosedLoopOnArray(replicated, ReadLoop(1));
  // Two evenly spaced replicas save ~R/4 = 1.5 ms on average.
  EXPECT_LT(b.latency.MeanUs(), a.latency.MeanUs() - 700.0);
}

TEST(MimdRaid, StripingCutsSeek) {
  MimdRaid one(BaseOptions(1, 1, 1, SchedulerKind::kSatf));
  MimdRaid four(BaseOptions(4, 1, 1, SchedulerKind::kSatf));
  const RunResult a = RunClosedLoopOnArray(one, ReadLoop(1));
  const RunResult b = RunClosedLoopOnArray(four, ReadLoop(1));
  EXPECT_LT(b.latency.MeanUs(), a.latency.MeanUs());
}

TEST(MimdRaid, SrArrayBeatsPureStripingReadOnly) {
  // Six disks, read-only, low load: the paper's headline effect.
  MimdRaid stripe(BaseOptions(6, 1, 1, SchedulerKind::kSatf));
  MimdRaid sr(BaseOptions(2, 3, 1, SchedulerKind::kRsatf));
  const RunResult a = RunClosedLoopOnArray(stripe, ReadLoop(2));
  const RunResult b = RunClosedLoopOnArray(sr, ReadLoop(2));
  EXPECT_LT(b.latency.MeanUs(), a.latency.MeanUs());
}

TEST(MimdRaid, LatencyModelTracksMeasurement) {
  // Equation (4) is an acknowledged approximation (it divides seek *time* by
  // Ds although short seeks are settle-dominated), so we test what the paper
  // relies on: the model ranks aspect ratios the same way measurement does,
  // and its absolute prediction is within a factor of two of measurement.
  // A larger footprint keeps the seek term out of the settle-dominated
  // regime, where the aspect ratios are hard to distinguish.
  constexpr uint64_t kDataset = 8'000'000;
  MimdRaidOptions probe = BaseOptions(1, 1, 1);
  const ModelDiskParams params =
      ModelParamsForDataset(MakeSt39133Geometry(), probe.profile, kDataset);
  const DiskNoiseModel noise = DiskNoiseModel::None();
  const double overhead = noise.overhead_mean_us + noise.post_overhead_mean_us;

  struct Shape {
    int ds;
    int dr;
  };
  std::vector<double> measured;
  std::vector<double> modeled;
  for (const Shape s : {Shape{6, 1}, Shape{2, 3}, Shape{1, 6}}) {
    MimdRaidOptions opts = BaseOptions(s.ds, s.dr, 1);
    opts.dataset_sectors = kDataset;
    MimdRaid array(opts);
    measured.push_back(
        RunClosedLoopOnArray(array, ReadLoop(1, 1200)).latency.MeanUs());
    modeled.push_back(
        SrReadLatencyUs(params.max_seek_us, params.rotation_us, s.ds, s.dr) +
        overhead);
  }
  for (size_t i = 0; i < measured.size(); ++i) {
    EXPECT_GT(measured[i], modeled[i] * 0.5) << i;
    EXPECT_LT(measured[i], modeled[i] * 2.0) << i;
    for (size_t j = i + 1; j < measured.size(); ++j) {
      // Same winner under model and measurement.
      EXPECT_EQ(modeled[i] < modeled[j], measured[i] < measured[j])
          << i << " vs " << j;
    }
  }
}

TEST(MimdRaid, ThroughputScalesWithDisks) {
  MimdRaid two(BaseOptions(2, 1, 1, SchedulerKind::kSatf));
  MimdRaid six(BaseOptions(6, 1, 1, SchedulerKind::kSatf));
  ClosedLoopOptions loop = ReadLoop(16, 2500);
  const RunResult a = RunClosedLoopOnArray(two, loop);
  const RunResult b = RunClosedLoopOnArray(six, loop);
  EXPECT_GT(b.iops, a.iops * 1.8);
}

TEST(MimdRaid, WritesOnReplicatedArrayStillComplete) {
  MimdRaid array(BaseOptions(2, 2, 1));
  ClosedLoopOptions loop;
  loop.outstanding = 4;
  loop.read_frac = 0.5;
  loop.sectors = 8;
  loop.warmup_ops = 50;
  loop.measure_ops = 800;
  const RunResult r = RunClosedLoopOnArray(array, loop);
  EXPECT_EQ(r.latency.count(), 800u);
  EXPECT_GT(r.iops, 0.0);
}

TEST(MimdRaid, ForegroundPropagationSlowerThanBackground) {
  MimdRaidOptions fg = BaseOptions(2, 2, 1);
  fg.foreground_write_propagation = true;
  MimdRaidOptions bg = BaseOptions(2, 2, 1);
  MimdRaid fg_array(fg);
  MimdRaid bg_array(bg);
  ClosedLoopOptions loop;
  loop.outstanding = 1;
  loop.read_frac = 0.0;  // pure writes
  loop.sectors = 8;
  loop.warmup_ops = 50;
  loop.measure_ops = 600;
  const RunResult a = RunClosedLoopOnArray(fg_array, loop);
  const RunResult b = RunClosedLoopOnArray(bg_array, loop);
  EXPECT_GT(a.latency.MeanUs(), b.latency.MeanUs());
}

TEST(MimdRaid, CalibratedPredictorEndToEnd) {
  // Full software pipeline on noisy disks with periodic re-calibration: the
  // Table 2 setting. Misses must stay rare and the run must behave.
  MimdRaidOptions options = BaseOptions(1, 2, 1);
  options.noise = DiskNoiseModel::Prototype();
  options.use_oracle_predictor = false;
  options.recalibration_interval_us = SimDuration(2'000'000);
  options.calibration_seek_distances = 10;
  MimdRaid array(options);
  const RunResult r = RunClosedLoopOnArray(array, ReadLoop(2, 1200));
  EXPECT_EQ(r.latency.count(), 1200u);
  // The 1x2 SR-Array spans two disks; aggregate both predictors.
  uint64_t predictions = 0;
  uint64_t misses = 0;
  for (size_t i = 0; i < array.num_disks(); ++i) {
    auto& predictor =
        dynamic_cast<HeadPositionPredictor&>(array.predictor(i));
    predictions += predictor.stats().predictions;
    misses += predictor.stats().misses;
  }
  EXPECT_GT(predictions, 1000u);
  EXPECT_LT(static_cast<double>(misses) / static_cast<double>(predictions),
            0.05);
}

TEST(MimdRaid, RecalibrationSkipsFailedSlotAndResumesAfterRebuild) {
  // A failed slot never dispatches, so a reference read queued on it would
  // sit there for good and keep the array from ever going idle.
  MimdRaidOptions options = BaseOptions(1, 1, 2);
  options.dataset_sectors = 20'000;
  options.use_oracle_predictor = false;
  options.recalibration_interval_us = SimDuration(50'000);
  options.calibration_seek_distances = 10;
  TraceCollector collector;
  options.collector = &collector;
  MimdRaid array(options);
  // The timers tick at t0 + k * 50 ms; check idleness halfway between ticks,
  // when the live slot's reference read has long finished.
  const SimTime t0 = array.sim().Now();
  const auto between_ticks = [t0](SimTime after) {
    const int64_t k = (after - t0).us() / 50'000 + 1;
    return t0 + SimDuration(k * 50'000 + 25'000);
  };
  ASSERT_TRUE(array.backend().FailDisk(SlotId(1)));
  array.sim().RunUntil(between_ticks(t0 + SimDuration(500'000)));
  EXPECT_TRUE(array.backend().Idle()) << "reads stranded on the failed slot";

  bool rebuilt = false;
  array.backend().Rebuild(SlotId(1), [&rebuilt](const IoResult& r) {
    EXPECT_EQ(r.status, IoStatus::kOk);
    rebuilt = true;
  });
  while (!rebuilt) {
    ASSERT_TRUE(array.sim().Step());
  }
  const SimTime rebuilt_at = array.sim().Now();
  array.sim().RunUntil(between_ticks(rebuilt_at + SimDuration(500'000)));
  // The timer stayed armed: the slot takes a reference read every tick again.
  const uint64_t reference_lba =
      dynamic_cast<HeadPositionPredictor&>(array.predictor(1)).reference_lba();
  int reference_reads = 0;
  for (const DiskOpRecord& op : collector.disk_ops()) {
    if (op.slot == 1 && !op.is_write && op.lba == reference_lba &&
        op.start_us >= rebuilt_at) {
      ++reference_reads;
    }
  }
  EXPECT_GE(reference_reads, 9);
  EXPECT_TRUE(array.backend().Idle());
}

TEST(Experiment, ModelParamsReflectFootprint) {
  const DiskGeometry geo = MakeSt39133Geometry();
  const SeekProfile profile = MakeSt39133SeekProfile();
  const ModelDiskParams small =
      ModelParamsForDataset(geo, profile, 1'000'000);
  const ModelDiskParams large =
      ModelParamsForDataset(geo, profile, 16'000'000);
  EXPECT_LT(small.max_seek_us, large.max_seek_us);
  EXPECT_DOUBLE_EQ(small.rotation_us, 6000.0);
}

TEST(Experiment, TraceRunsOnArray) {
  SyntheticTraceParams params = CelloBaseParams(/*duration_s=*/1200, 11);
  params.dataset_sectors = 2'000'000;
  params.io_per_s = 10.0;
  const Trace trace = GenerateSyntheticTrace(params);
  MimdRaid array(BaseOptions(2, 2, 1));
  TracePlayerOptions popt;
  popt.warmup_ios = 20;
  const RunResult r = RunTraceOnArray(array, trace, popt);
  EXPECT_EQ(r.completed, trace.records.size());
  EXPECT_FALSE(r.saturated);
  EXPECT_GT(r.latency.MeanUs(), 0.0);
}

TEST(Experiment, CacheAbsorbsHotReads) {
  SyntheticTraceParams params = TpccParams(/*duration_s=*/30, 13);
  params.dataset_sectors = 2'000'000;
  params.io_per_s = 200.0;
  const Trace trace = GenerateSyntheticTrace(params);
  MimdRaid cold(BaseOptions(2, 1, 1));
  MimdRaid warm(BaseOptions(2, 1, 1));
  TracePlayerOptions popt;
  popt.warmup_ios = 20;
  const RunResult uncached = RunTraceOnArray(cold, trace, popt);
  const RunResult cached =
      RunTraceWithCache(warm, trace, /*cache_bytes=*/256ull << 20, popt);
  EXPECT_LT(cached.latency.MeanUs(), uncached.latency.MeanUs());
}

TEST(Experiment, DeterministicRuns) {
  MimdRaid a(BaseOptions(2, 2, 1));
  MimdRaid b(BaseOptions(2, 2, 1));
  const RunResult ra = RunClosedLoopOnArray(a, ReadLoop(4, 600));
  const RunResult rb = RunClosedLoopOnArray(b, ReadLoop(4, 600));
  EXPECT_DOUBLE_EQ(ra.latency.MeanUs(), rb.latency.MeanUs());
  EXPECT_DOUBLE_EQ(ra.iops, rb.iops);
}

}  // namespace
}  // namespace mimdraid
