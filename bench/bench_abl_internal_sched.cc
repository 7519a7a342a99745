// Ablation: host-based software scheduling vs drive-internal firmware
// scheduling (the open question the paper closes with).
//
// One noisy drive, a closed random-read queue. Four ways to schedule it:
//   host FCFS                — no position knowledge anywhere;
//   host SATF (software)     — the paper's contribution: timestamps-only
//                              calibration + slack, one command at a time;
//   firmware FCFS (tags)     — drive accepts many commands, serves in order;
//   firmware SATF            — drive schedules internally with perfect
//                              knowledge of its own head and spindle.
// Firmware SATF is the upper bound; the software predictor's job is to get
// close to it without any hardware support. A firmware queue is modelled as
// the same host loop driven by an OraclePredictor with no slack: the drive's
// ground-truth timing from its exact head and spindle state, and no
// calibration run. A 32-tag scan cap would never bind at a queue of 16.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "bench/bench_common.h"
#include "src/calib/calibration.h"
#include "src/calib/predictor.h"
#include "src/sched/scheduler.h"

using namespace mimdraid;
using namespace mimdraid::bench;

namespace {

constexpr int kOps = 4000;
constexpr uint32_t kQueue = 16;

struct Outcome {
  double iops;
  double mean_ms;
};

std::unique_ptr<SimDisk> MakeDrive(Simulator* sim) {
  return std::make_unique<SimDisk>(
      sim, MakeSt39133Geometry(), MakeSt39133SeekProfile(),
      DiskNoiseModel::Prototype(), /*seed=*/5,
      /*phase=*/1234.0, 6000.0 * (1 + 22e-6));
}

// Closed loop over a queue abstraction.
template <typename SubmitOne>
Outcome RunClosed(Simulator* sim, SubmitOne submit) {
  Rng rng(9);
  int done = 0;
  Summary latency;
  SimTime start = sim->Now();
  std::function<void()> issue = [&]() {
    const SimTime t0 = sim->Now();
    submit(rng, [&, t0](SimTime completion) {
      ++done;
      latency.Add(static_cast<double>((completion - t0).us()));
      if (done + static_cast<int>(kQueue) <= kOps) {
        issue();
      }
    });
  };
  for (uint32_t i = 0; i < kQueue; ++i) {
    issue();
  }
  while (done < kOps) {
    sim->Step();
  }
  Outcome out;
  out.iops = static_cast<double>(done) / SecondsFromUs(sim->Now() - start);
  out.mean_ms = latency.mean() / 1000.0;
  return out;
}

// External queue + scheduler + predictor, one command outstanding (the
// prototype's structure). `firmware` swaps the calibrated software predictor
// for the drive's own perfect knowledge.
Outcome RunHost(SchedulerKind kind, bool firmware = false) {
  Simulator sim;
  auto drive_ptr = MakeDrive(&sim);
  SimDisk& disk = *drive_ptr;
  std::unique_ptr<AccessPredictor> predictor;
  if (firmware) {
    predictor = std::make_unique<OraclePredictor>(&disk, 0.0);
  } else {
    CalibrationOptions copt;
    copt.seek.num_distances = 14;
    predictor = MakeCalibratedPredictor(&sim, &disk, copt);
  }
  auto sched = MakeScheduler(kind);
  DriveQueue queue(sched->index_window());
  uint64_t next_id = 1;
  std::unordered_map<uint64_t, std::function<void(SimTime)>> done_map;

  std::function<void()> pump = [&]() {
    if (disk.busy() || queue.empty()) {
      return;
    }
    ScheduleContext ctx;
    ctx.now = sim.Now();
    ctx.predictor = predictor.get();
    const SchedulerPick pick = sched->Pick(queue, ctx);
    QueuedRequest entry = queue.Take(pick.queue_index);
    double predicted = pick.predicted_service_us;
    if (predicted <= 0) {
      predicted = predictor->Predict(sim.Now(), pick.lba, entry.sectors, false)
                      .total_us;
    }
    predictor->OnDispatch(sim.Now(), pick.lba, entry.sectors, false, predicted);
    const uint64_t id = entry.id;
    const BlockAddr lba = pick.lba;
    const uint32_t sectors = entry.sectors;
    disk.Start(entry.op, lba, sectors, [&, id, lba,
                                        sectors](const DiskOpResult& r) {
      predictor->OnCompletion(r.completion_us, lba, sectors);
      auto it = done_map.find(id);
      auto cb = std::move(it->second);
      done_map.erase(it);
      cb(r.completion_us);
      pump();
    });
  };

  return RunClosed(&sim, [&](Rng& rng, std::function<void(SimTime)> cb) {
    QueuedRequest entry;
    entry.id = next_id++;
    entry.op = DiskOp::kRead;
    entry.sectors = 1;
    entry.candidates = {QueueCandidate(BlockAddr(rng.UniformU64(disk.num_sectors())))};
    entry.arrival_us = sim.Now();
    done_map[entry.id] = std::move(cb);
    queue.Push(std::move(entry), disk.layout());
    pump();
  });
}

}  // namespace

int main(int argc, char** argv) {
  InitBenchSweep(argc, argv);
  PrintHeader("Ablation: host vs firmware scheduling",
              "one noisy drive, 512 B random reads, queue 16");
  DeferredSweep<Outcome> sweep;
  sweep.Defer([] { return RunHost(SchedulerKind::kFcfs); });
  sweep.Defer([] { return RunHost(SchedulerKind::kLook); });
  sweep.Defer([] { return RunHost(SchedulerKind::kSatf); });
  sweep.Defer([] { return RunHost(SchedulerKind::kFcfs, /*firmware=*/true); });
  sweep.Defer([] { return RunHost(SchedulerKind::kSatf, /*firmware=*/true); });
  sweep.Run();

  std::printf("%-32s %-10s %s\n", "scheduler", "IOPS", "mean latency");
  const Outcome host_fcfs = sweep.Next();
  std::printf("%-32s %-10.0f %.2f ms\n", "host FCFS", host_fcfs.iops,
              host_fcfs.mean_ms);
  const Outcome host_look = sweep.Next();
  std::printf("%-32s %-10.0f %.2f ms\n", "host LOOK (software)",
              host_look.iops, host_look.mean_ms);
  const Outcome host_satf = sweep.Next();
  std::printf("%-32s %-10.0f %.2f ms\n", "host SATF (software predictor)",
              host_satf.iops, host_satf.mean_ms);
  const Outcome fw_fcfs = sweep.Next();
  std::printf("%-32s %-10.0f %.2f ms\n", "firmware FCFS (tags)", fw_fcfs.iops,
              fw_fcfs.mean_ms);
  const Outcome fw_satf = sweep.Next();
  std::printf("%-32s %-10.0f %.2f ms\n", "firmware SATF (perfect)",
              fw_satf.iops, fw_satf.mean_ms);
  std::printf(
      "\nexpected: the software predictor recovers most of the firmware\n"
      "SATF gain over FCFS without hardware support (the paper's claim);\n"
      "the residual gap is the slack paid for unobservable overheads.\n");
  return 0;
}
