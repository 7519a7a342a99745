// Microbenchmarks (google-benchmark) for the hot paths of the simulator:
// LBA mapping, access planning, replica placement, scheduler picks, array
// construction, and the GF(2^8) erasure codec. These bound the cost of
// simulated I/O, of position-sensitive scheduling (a SATF-class dispatch
// walks the queue's cylinder index outward from the head and plans only the
// candidates its bound cannot rule out), of a drive queue's enqueue ->
// dispatch cycle, and of byte-level coding per stripe.
#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/array/placement.h"
#include "src/calib/predictor.h"
#include "src/core/mimd_raid.h"
#include "src/disk/sim_disk.h"
#include "src/ec/gf256.h"
#include "src/sched/drive_queue.h"
#include "src/sched/positional_schedulers.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/va/virtual_array.h"

namespace mimdraid {
namespace {

struct Fixture {
  Fixture()
      : geometry(MakeSt39133Geometry()),
        layout(&geometry),
        profile(MakeSt39133SeekProfile()),
        timing(&layout, profile, 0.0),
        placement3(&layout, 3),
        rng(1) {}
  DiskGeometry geometry;
  DiskLayout layout;
  SeekProfile profile;
  DiskTimingModel timing;
  SrDiskPlacement placement3;
  Rng rng;
};

Fixture& F() {
  // mdl-ok(MDL004): serial google-benchmark binary, never in a parallel sweep
  static Fixture f;
  return f;
}

void BM_LayoutToChs(benchmark::State& state) {
  Fixture& f = F();
  uint64_t lba = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.layout.ToChs(lba));
    lba = (lba * 2654435761u + 7) % f.layout.num_data_sectors();
  }
}
BENCHMARK(BM_LayoutToChs);

void BM_TimingPlan(benchmark::State& state) {
  Fixture& f = F();
  HeadState head{100, 3};
  uint64_t lba = 999;
  double t = 0.0;
  for (auto _ : state) {
    const AccessPlan plan = f.timing.Plan(head, t, lba, 8, false);
    benchmark::DoNotOptimize(plan.total_us);
    head = plan.end_state;
    t += plan.total_us;
    lba = (lba * 2654435761u + 13) % (f.layout.num_data_sectors() - 8);
  }
}
BENCHMARK(BM_TimingPlan);

void BM_PlacementPhysicalLba(benchmark::State& state) {
  Fixture& f = F();
  SrDiskPlacement& placement = f.placement3;
  uint64_t s = 5;
  int r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placement.PhysicalLba(s, r));
    s = (s * 2654435761u + 3) % placement.capacity_sectors();
    r = (r + 1) % 3;
  }
}
BENCHMARK(BM_PlacementPhysicalLba);

void BM_SimDiskOp(benchmark::State& state) {
  Simulator sim;
  SimDisk disk(&sim, F().geometry, F().profile, DiskNoiseModel::None(), 1,
               0.0);
  Rng rng(3);
  for (auto _ : state) {
    const uint64_t lba = rng.UniformU64(disk.num_sectors() - 8);
    bool done = false;
    disk.Start(DiskOp::kRead, BlockAddr(lba), 8, [&](const DiskOpResult&) {
      done = true;
    });
    while (!done) {
      sim.Step();
    }
  }
}
BENCHMARK(BM_SimDiskOp);

// A request of 8-sector reads. `replicated` draws its candidates from a
// Dr = 3 SR-Array placement (the RSATF shape); otherwise it has one
// candidate anywhere on the disk.
QueuedRequest RandomRead(const SimDisk& disk, const SrDiskPlacement& placement,
                         bool replicated, Rng& rng) {
  QueuedRequest req;
  req.op = DiskOp::kRead;
  req.sectors = 8;
  if (replicated) {
    const uint64_t s = rng.UniformU64(placement.capacity_sectors() - 8);
    for (const uint64_t cand : placement.AllReplicas(s)) {
      req.candidates.push_back(QueueCandidate(BlockAddr(cand)));
    }
  } else {
    req.candidates.push_back(QueueCandidate(
        BlockAddr(rng.UniformU64(disk.layout().num_data_sectors() - 8))));
  }
  return req;
}

// One pick per iteration over a fixed queue of `state.range(0)` reads
// (RandomRead), with the clock moving 1 ms per pick.
void RunPick(benchmark::State& state, SchedulerKind kind, bool replicated) {
  const size_t queue_len = static_cast<size_t>(state.range(0));
  Simulator sim;
  SimDisk disk(&sim, F().geometry, F().profile, DiskNoiseModel::None(), 1,
               0.0);
  OraclePredictor predictor(&disk, 0.0);
  SrDiskPlacement placement(&disk.layout(), 3);
  Rng rng(5);
  SatfScheduler sched(kind);
  DriveQueue queue(sched.index_window());
  for (size_t i = 0; i < queue_len; ++i) {
    QueuedRequest req = RandomRead(disk, placement, replicated, rng);
    req.id = i + 1;
    queue.Push(std::move(req), disk.layout());
  }
  ScheduleContext ctx;
  ctx.predictor = &predictor;
  SimTime now;
  for (auto _ : state) {
    ctx.now = now;
    benchmark::DoNotOptimize(sched.Pick(queue, ctx));
    now += SimDuration(1000);
  }
  state.SetComplexityN(static_cast<int64_t>(queue_len));
}

void BM_RsatfPick(benchmark::State& state) {
  RunPick(state, SchedulerKind::kRsatf, /*replicated=*/true);
}
BENCHMARK(BM_RsatfPick)
    ->Arg(8)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(1024)
    ->Complexity();

// Enqueue -> dispatch on one drive queue at a steady depth of
// `state.range(0)` Dr = 3 reads under RSATF: each iteration pushes a fresh
// read, picks, takes the pick out of the queue and runs it on the drive, so
// the head moves as it would under load. Per-iteration time covers the
// queue's index upkeep, the walk and one simulated disk op.
void BM_DriveQueueCycle(benchmark::State& state) {
  const size_t depth = static_cast<size_t>(state.range(0));
  Simulator sim;
  SimDisk disk(&sim, F().geometry, F().profile, DiskNoiseModel::None(), 1,
               0.0);
  OraclePredictor predictor(&disk, 0.0);
  SrDiskPlacement placement(&disk.layout(), 3);
  Rng rng(7);
  SatfScheduler sched(SchedulerKind::kRsatf);
  DriveQueue queue(sched.index_window());
  uint64_t next_id = 1;
  for (size_t i = 0; i + 1 < depth; ++i) {
    QueuedRequest req = RandomRead(disk, placement, /*replicated=*/true, rng);
    req.id = next_id++;
    queue.Push(std::move(req), disk.layout());
  }
  ScheduleContext ctx;
  ctx.predictor = &predictor;
  for (auto _ : state) {
    QueuedRequest req = RandomRead(disk, placement, /*replicated=*/true, rng);
    req.id = next_id++;
    queue.Push(std::move(req), disk.layout());
    ctx.now = sim.Now();
    const SchedulerPick pick = sched.Pick(queue, ctx);
    const QueuedRequest entry = queue.Take(pick.queue_index);
    bool done = false;
    disk.Start(entry.op, pick.lba, entry.sectors,
               [&done](const DiskOpResult&) { done = true; });
    while (!done) {
      sim.Step();
    }
  }
}
BENCHMARK(BM_DriveQueueCycle)->Arg(8)->Arg(16)->Arg(1024);

// The shallow SATF queue of the parity workloads: per-pick overhead, not the
// candidate scan, dominates at this depth.
void BM_SatfPick(benchmark::State& state) {
  RunPick(state, SchedulerKind::kSatf, /*replicated=*/false);
}
BENCHMARK(BM_SatfPick)->Arg(4);

// Array build: one MimdRaid construction per iteration (disks, per-slot
// placements, controller), as perfbench's setup does it. Args are Ds and Dr
// of a Ds x Dr x 1 mirror: 2 x 3 is perfbench's mirror shape, 12 x 3 a
// 36-disk array.
void BM_ArrayBuild(benchmark::State& state) {
  MimdRaidOptions options;
  options.aspect.ds = static_cast<int>(state.range(0));
  options.aspect.dr = static_cast<int>(state.range(1));
  options.aspect.dm = 1;
  options.dataset_sectors = 8'000'000;
  for (auto _ : state) {
    MimdRaid array(options);
    benchmark::DoNotOptimize(&array);
  }
}
BENCHMARK(BM_ArrayBuild)
    ->Args({2, 3})
    ->Args({12, 3})
    ->Unit(benchmark::kMillisecond);

// Closed-loop fleet: N independent disks on one simulator, each immediately
// re-issuing on completion, so the event engine holds N pending completions
// at all times. One iteration = one Step(); measures the engine's per-event
// cost (heap pop + push) at fleet scale, not disk mechanics.
void BM_FleetSimStep(benchmark::State& state) {
  const size_t fleet = static_cast<size_t>(state.range(0));
  Simulator sim;
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<uint64_t> next_lba(fleet);
  Rng rng(11);
  disks.reserve(fleet);
  for (size_t i = 0; i < fleet; ++i) {
    disks.push_back(std::make_unique<SimDisk>(&sim, F().geometry, F().profile,
                                              DiskNoiseModel::None(), i + 1,
                                              0.0));
    next_lba[i] = rng.UniformU64(disks[i]->num_sectors() - 8);
  }
  // Self-rescheduling issue loop per disk keeps exactly `fleet` events live.
  std::function<void(size_t)> issue = [&](size_t i) {
    disks[i]->Start(DiskOp::kRead, BlockAddr(next_lba[i]), 8,
                    [&, i](const DiskOpResult&) {
                      next_lba[i] =
                          (next_lba[i] * 2654435761u + 9) %
                          (disks[i]->num_sectors() - 8);
                      issue(i);
                    });
  };
  for (size_t i = 0; i < fleet; ++i) {
    issue(i);
  }
  for (auto _ : state) {
    sim.Step();
  }
  state.SetComplexityN(static_cast<int64_t>(fleet));
}
BENCHMARK(BM_FleetSimStep)->Arg(100)->Arg(1000)->Complexity();

// Virtual-array grant/release round trip on a mixed two-generation fleet of
// N drives under the most-free policy (the sorting policy: O(N log N) per
// grant). Bounds the control-plane cost of carving tenants out of the fleet.
void BM_VaAllocate(benchmark::State& state) {
  const size_t fleet_drives = static_cast<size_t>(state.range(0));
  FleetSpec fleet;
  DriveParams fast;
  fast.name = "fast";
  fast.geometry = MakeTestGeometry();
  fast.profile = MakeTestSeekProfile();
  DriveParams slow = fast;
  slow.name = "slow";
  slow.geometry.rpm = 7200;
  slow.geometry.num_cylinders = 90;
  fleet.generations = {fast, slow};
  for (size_t d = 0; d < fleet_drives; ++d) {
    fleet.slot_generation.push_back(d % 2);
  }
  VirtualArrayAllocator alloc(fleet, fleet_drives, VaPlacement::kMostFree,
                              /*seed=*/7);
  VaRequest request;
  request.name = "bm";
  request.backend = ArrayBackendKind::kMirror;
  request.aspect.ds = 2;
  request.aspect.dr = 1;
  request.aspect.dm = 2;
  request.dataset_sectors = 2400;
  request.stripe_unit_sectors = 16;
  for (auto _ : state) {
    std::optional<VaAllocation> a = alloc.Allocate(request);
    benchmark::DoNotOptimize(a);
    alloc.Release(*a);
  }
  state.SetComplexityN(static_cast<int64_t>(fleet_drives));
}
BENCHMARK(BM_VaAllocate)->Arg(8)->Arg(64)->Arg(256)->Complexity();

// GF(2^8) Cauchy coding over one stripe of k 4 KiB shards: parity
// generation (Encode) and worst-case repair (Reconstruct with all m data
// shards lost, so the full k x k inversion plus every missing row is paid).
// Prices the byte path the simulator's plans stand in for.
void BM_EcEncode(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const uint32_t m = static_cast<uint32_t>(state.range(1));
  constexpr size_t kShardBytes = 4096;
  const EcCodec codec(k, m);
  Rng rng(19);
  std::vector<std::vector<uint8_t>> data(k);
  for (auto& s : data) {
    s.resize(kShardBytes);
    for (auto& b : s) {
      b = static_cast<uint8_t>(rng.UniformU64(256));
    }
  }
  std::vector<std::vector<uint8_t>> parity;
  for (auto _ : state) {
    codec.Encode(data, &parity);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * k *
                          kShardBytes);
}
BENCHMARK(BM_EcEncode)->Args({4, 2})->Args({5, 1})->Args({8, 4});

void BM_EcDecode(benchmark::State& state) {
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  const uint32_t m = static_cast<uint32_t>(state.range(1));
  constexpr size_t kShardBytes = 4096;
  const EcCodec codec(k, m);
  Rng rng(23);
  std::vector<std::vector<uint8_t>> whole(k);
  for (auto& s : whole) {
    s.resize(kShardBytes);
    for (auto& b : s) {
      b = static_cast<uint8_t>(rng.UniformU64(256));
    }
  }
  std::vector<std::vector<uint8_t>> parity;
  codec.Encode(whole, &parity);
  whole.insert(whole.end(), parity.begin(), parity.end());
  std::vector<bool> present(k + m, true);
  for (uint32_t i = 0; i < m; ++i) {
    present[i] = false;  // worst case: m data shards gone
  }
  for (auto _ : state) {
    std::vector<std::vector<uint8_t>> shards = whole;
    for (uint32_t i = 0; i < m; ++i) {
      shards[i].clear();
    }
    const bool ok = codec.Reconstruct(&shards, present);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(shards);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * m *
                          kShardBytes);
}
BENCHMARK(BM_EcDecode)->Args({4, 2})->Args({5, 1})->Args({8, 4});

}  // namespace
}  // namespace mimdraid

BENCHMARK_MAIN();
