// Observability-layer tests: per-request phase attribution, zero-cost
// disablement, Chrome trace export, the json_lite parser behind the trace
// validator, and the StatsRegistry export target.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "src/calib/predictor.h"
#include "src/core/experiment.h"
#include "src/core/mimd_raid.h"
#include "src/disk/sim_disk.h"
#include "src/ec/ec_controller.h"
#include "src/ec/ec_layout.h"
#include "src/ec/gf256.h"
#include "src/obs/chrome_trace.h"
#include "src/obs/json_lite.h"
#include "src/obs/stats_registry.h"
#include "src/obs/trace_collector.h"

namespace mimdraid {
namespace {

MimdRaidOptions BaseOptions(int ds, int dr, int dm,
                            SchedulerKind sched = SchedulerKind::kRsatf) {
  MimdRaidOptions o;
  o.aspect.ds = ds;
  o.aspect.dr = dr;
  o.aspect.dm = dm;
  o.scheduler = sched;
  o.dataset_sectors = 2'000'000;
  o.seed = 77;
  return o;
}

ClosedLoopOptions SmallLoop(double read_frac = 1.0) {
  ClosedLoopOptions c;
  c.outstanding = 3;
  c.read_frac = read_frac;
  c.sectors = 1;
  c.warmup_ops = 50;
  c.measure_ops = 400;
  return c;
}

TEST(TraceCollector, PhaseSumMatchesEndToEnd) {
  TraceCollector collector;
  MimdRaidOptions options = BaseOptions(2, 2, 1);
  options.collector = &collector;
  MimdRaid array(options);
  ClosedLoopOptions loop = SmallLoop(/*read_frac=*/0.7);
  loop.collector = &collector;
  RunClosedLoopOnArray(array, loop);

  ASSERT_GT(collector.requests().size(), 400u);
  EXPECT_EQ(collector.open_requests(), 0u);
  for (const RequestRecord& r : collector.requests()) {
    // The recovery residual is defined as the exact remainder, so the
    // identity holds to double rounding.
    EXPECT_NEAR(r.phases.SumUs(), r.EndToEndUs(), 1e-6);
    EXPECT_EQ(r.status, IoStatus::kOk);
    if (!r.is_write) {
      // Fault-free reads are fully explained by their final leg: the
      // residual is only the sub-µs rounding of the integer completion
      // timestamp.
      EXPECT_LT(std::abs(r.phases.recovery_us), 1.0)
          << "request " << r.id << " recovery " << r.phases.recovery_us;
    }
  }
}

TEST(TraceCollector, RecordsDiskOpsQueueDepthAndMarkers) {
  TraceCollector collector;
  MimdRaidOptions options = BaseOptions(1, 2, 1);
  options.collector = &collector;
  MimdRaid array(options);
  ClosedLoopOptions loop = SmallLoop();
  loop.collector = &collector;
  RunClosedLoopOnArray(array, loop);

  // Read-only on a mirror: one disk command per request (replica duplicates
  // are cancelled at dispatch), plus any calibration/maintenance commands.
  EXPECT_GE(collector.disk_ops().size(), collector.requests().size());
  EXPECT_GT(collector.queue_depths().size(), 0u);
  EXPECT_EQ(collector.num_slots(), 2u);
  ASSERT_EQ(collector.markers().size(), 2u);
  EXPECT_EQ(collector.markers()[0].name, "measure begin");
  EXPECT_EQ(collector.markers()[1].name, "measure end");
  // Disk-op decompositions are internally consistent too.
  for (const DiskOpRecord& op : collector.disk_ops()) {
    const double service =
        static_cast<double>((op.completion_us - op.start_us).us());
    const double parts =
        op.overhead_us + op.seek_us + op.rotational_us + op.transfer_us;
    EXPECT_NEAR(service, parts, 1.0) << "slot " << op.slot;
  }
}

TEST(TraceCollector, PredictionSamplesTrackServiceTime) {
  TraceCollector collector;
  MimdRaidOptions options = BaseOptions(1, 2, 1);
  options.collector = &collector;
  MimdRaid array(options);
  RunClosedLoopOnArray(array, SmallLoop());

  const PredictionErrorSummary pe = collector.PredictionError();
  ASSERT_GT(pe.samples, 0u);
  // The oracle predicts media time; the actual service also includes the
  // fixed command overhead, so the signed error is positive but bounded.
  EXPECT_GT(pe.mean_error_us, 0.0);
  EXPECT_LT(pe.mean_abs_error_us, 2000.0);
  EXPECT_GE(pe.rms_error_us, pe.mean_abs_error_us);
  EXPECT_GT(collector.FractionPredictedWithin(2000.0), 0.9);
  EXPECT_GT(collector.scheduler_picks(), 0u);
}

TEST(TraceCollector, DisabledCollectorLeavesResultsIdentical) {
  // A run with a collector attached must produce the same measured numbers
  // as a run without one: the observer must never perturb the simulation.
  TraceCollector collector;
  MimdRaidOptions traced_options = BaseOptions(2, 2, 1);
  traced_options.collector = &collector;
  MimdRaid with(traced_options);
  MimdRaid without(BaseOptions(2, 2, 1));

  ClosedLoopOptions loop = SmallLoop(/*read_frac=*/0.6);
  ClosedLoopOptions traced_loop = loop;
  traced_loop.collector = &collector;
  const RunResult a = RunClosedLoopOnArray(with, traced_loop);
  const RunResult b = RunClosedLoopOnArray(without, loop);

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.MeanUs(), b.latency.MeanUs());
  EXPECT_EQ(a.latency.MaxUs(), b.latency.MaxUs());
  EXPECT_EQ(a.iops, b.iops);
}

TEST(TraceCollector, Raid5RmwWriteBooksEarlierPhasesAsRecovery) {
  Simulator sim;
  std::vector<std::unique_ptr<SimDisk>> sim_disks;
  std::vector<std::unique_ptr<AccessPredictor>> preds;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  for (uint32_t i = 0; i < 4; ++i) {
    sim_disks.push_back(std::make_unique<SimDisk>(
        &sim, MakeTestGeometry(), MakeTestSeekProfile(),
        DiskNoiseModel::None(), 17 + i, i * 500.0));
    preds.push_back(
        std::make_unique<OraclePredictor>(sim_disks.back().get(), 0.0));
    dptr.push_back(sim_disks.back().get());
    pptr.push_back(preds.back().get());
  }
  // RAID-5: the erasure controller with k = 3, m = 1.
  EcLayout layout(4, 3, 16, 2000);
  EcCodec codec(3, 1);
  TraceCollector collector;
  DriveSetOptions options;
  options.collector = &collector;
  EcController controller(&sim, dptr, pptr, &layout, &codec, options);

  bool done = false;
  controller.Submit(DiskOp::kWrite, 100, 4, [&](const IoResult&) {
    done = true;
  });
  while (!done) {
    ASSERT_TRUE(sim.Step());
  }

  ASSERT_EQ(collector.requests().size(), 1u);
  const RequestRecord& r = collector.requests()[0];
  EXPECT_TRUE(r.is_write);
  EXPECT_NEAR(r.phases.SumUs(), r.EndToEndUs(), 1e-6);
  // A small write is a read-modify-write: the read phase precedes the final
  // write leg and must land in the recovery residual, not vanish.
  EXPECT_GT(r.phases.recovery_us, 0.0);
  EXPECT_GT(collector.disk_ops().size(), 2u);  // 2 reads + 2 writes
}

TEST(ChromeTrace, EmitsParsableAndConsistentJson) {
  TraceCollector collector;
  MimdRaidOptions options = BaseOptions(1, 2, 1);
  options.collector = &collector;
  MimdRaid array(options);
  ClosedLoopOptions loop = SmallLoop();
  loop.measure_ops = 100;
  loop.collector = &collector;
  RunClosedLoopOnArray(array, loop);

  const std::string json = ChromeTraceJson(collector);
  const json_lite::ParseResult parsed = json_lite::Parse(json);
  ASSERT_TRUE(parsed.ok) << parsed.error << " at " << parsed.error_offset;
  const json_lite::Value* events = parsed.value.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  size_t complete = 0;
  size_t begins = 0;
  size_t ends = 0;
  size_t counters = 0;
  size_t instants = 0;
  for (const json_lite::Value& e : events->AsArray()) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.GetString("ph");
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.GetNumber("dur", -1.0), 0.0);
    } else if (ph == "b") {
      ++begins;
    } else if (ph == "e") {
      ++ends;
      // Phase breakdown rides on the end event and sums to the span.
      const json_lite::Value* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      const double sum = args->GetNumber("queue_us") +
                         args->GetNumber("overhead_us") +
                         args->GetNumber("seek_us") +
                         args->GetNumber("rotational_us") +
                         args->GetNumber("transfer_us") +
                         args->GetNumber("recovery_us");
      EXPECT_GT(sum, 0.0);
    } else if (ph == "C") {
      ++counters;
    } else if (ph == "i") {
      ++instants;
    }
  }
  EXPECT_EQ(complete, collector.disk_ops().size());
  EXPECT_EQ(begins, collector.requests().size());
  EXPECT_EQ(begins, ends);
  EXPECT_EQ(counters, collector.queue_depths().size());
  EXPECT_EQ(instants, collector.markers().size());
}

TEST(JsonLite, ParsesScalarsContainersAndEscapes) {
  const json_lite::ParseResult r = json_lite::Parse(
      R"({"a": [1, -2.5e2, true, false, null], "s": "x\"\\\n\tz", "n": {}})");
  ASSERT_TRUE(r.ok) << r.error;
  const json_lite::Value* a = r.value.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->AsArray().size(), 5u);
  EXPECT_DOUBLE_EQ(a->AsArray()[0].AsNumber(), 1.0);
  EXPECT_DOUBLE_EQ(a->AsArray()[1].AsNumber(), -250.0);
  EXPECT_TRUE(a->AsArray()[2].AsBool());
  EXPECT_TRUE(a->AsArray()[4].is_null());
  EXPECT_EQ(r.value.GetString("s"), "x\"\\\n\tz");
  EXPECT_TRUE(r.value.Find("n")->is_object());
}

TEST(JsonLite, RejectsMalformedDocuments) {
  EXPECT_FALSE(json_lite::Parse("").ok);
  EXPECT_FALSE(json_lite::Parse("{").ok);
  EXPECT_FALSE(json_lite::Parse("[1,]").ok);
  EXPECT_FALSE(json_lite::Parse("{\"a\":1} trailing").ok);
  EXPECT_FALSE(json_lite::Parse("\"unterminated").ok);
  EXPECT_FALSE(json_lite::Parse("nul").ok);
  const json_lite::ParseResult r = json_lite::Parse("[1, }");
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(JsonLite, RoundTripsEmittedEscapes) {
  // The escaping used by the Chrome exporter must survive our own parser.
  TraceCollector collector;
  collector.OnMarker("odd \"name\"\twith\nescapes\\", SimTime(5));
  const std::string json = ChromeTraceJson(collector);
  const json_lite::ParseResult r = json_lite::Parse(json);
  ASSERT_TRUE(r.ok) << r.error;
  const json_lite::Value* events = r.value.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const json_lite::Value& e : events->AsArray()) {
    if (e.GetString("ph") == "i") {
      EXPECT_EQ(e.GetString("name"), "odd \"name\"\twith\nescapes\\");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(StatsRegistry, SetIncrementGetAndDump) {
  StatsRegistry reg;
  EXPECT_EQ(reg.Get("missing"), 0.0);
  EXPECT_FALSE(reg.Contains("missing"));
  reg.Set("b.second", 2.0);
  reg.Set("a.first", 1.5);
  reg.Increment("a.first", 0.5);
  reg.Increment("c.counter");
  EXPECT_DOUBLE_EQ(reg.Get("a.first"), 2.0);
  EXPECT_DOUBLE_EQ(reg.Get("c.counter"), 1.0);
  EXPECT_EQ(reg.size(), 3u);
  const std::string dump = reg.Dump();
  // std::map ordering keeps the dump deterministic and sorted.
  EXPECT_LT(dump.find("a.first"), dump.find("b.second"));
  EXPECT_LT(dump.find("b.second"), dump.find("c.counter"));
}

TEST(StatsRegistry, CollectorExportPublishesSummaries) {
  TraceCollector collector;
  MimdRaidOptions options = BaseOptions(1, 2, 1);
  options.collector = &collector;
  MimdRaid array(options);
  ClosedLoopOptions loop = SmallLoop();
  loop.measure_ops = 100;
  RunClosedLoopOnArray(array, loop);

  StatsRegistry reg;
  collector.ExportTo(&reg);
  EXPECT_DOUBLE_EQ(reg.Get("trace.requests"),
                   static_cast<double>(collector.requests().size()));
  EXPECT_DOUBLE_EQ(reg.Get("trace.disk_ops"),
                   static_cast<double>(collector.disk_ops().size()));
  EXPECT_GT(reg.Get("trace.phase.rotational_us"), 0.0);
  EXPECT_GT(reg.Get("trace.prediction.samples"), 0.0);
  EXPECT_GT(reg.Get("trace.slot.00.utilization"), 0.0);
  EXPECT_TRUE(reg.Contains("trace.slot.01.utilization"));
}

TEST(TraceCollector, ClearResetsEverything) {
  TraceCollector collector;
  collector.OnRequestArrival(1, false, 0, 1, SimTime(100));
  collector.OnMarker("m", SimTime(200));
  collector.OnQueueDepth(0, SimTime(150), 3);
  EXPECT_EQ(collector.open_requests(), 1u);
  collector.Clear();
  EXPECT_EQ(collector.open_requests(), 0u);
  EXPECT_TRUE(collector.requests().empty());
  EXPECT_TRUE(collector.markers().empty());
  EXPECT_TRUE(collector.queue_depths().empty());
  EXPECT_EQ(collector.num_slots(), 0u);
  EXPECT_EQ(collector.SpanEndUs(), SimTime(0));
}

}  // namespace
}  // namespace mimdraid
