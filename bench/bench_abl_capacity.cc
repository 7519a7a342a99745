// Ablation: the capacity-for-performance frontier (the paper's title,
// quantified).
//
// Six disks, one dataset, every redundancy scheme in the repertoire — from
// RAID-5 and the general (k+m) erasure codes (most capacity, slowest small
// writes) through striping, the SR-Array family, RAID-10, and a 6-way mirror
// (least capacity). For each: usable capacity fraction, random-read latency,
// and mixed random throughput.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"

using namespace mimdraid;
using namespace mimdraid::bench;

namespace {

constexpr uint64_t kDataset = 4'000'000;  // ~2 GB
constexpr int kDisks = 6;

struct Outcome {
  double capacity_frac;
  double read_ms;
  double mixed_iops;
};

Outcome RunArray(const ArrayAspect& aspect, SchedulerKind sched) {
  Outcome out{};
  out.capacity_frac = 1.0 / aspect.ReplicasPerBlock();  // 1/(Dr*Dm)
  {
    MimdRaidOptions options;
    options.aspect = aspect;
    options.scheduler = sched;
    options.dataset_sectors = kDataset;
    MimdRaid array(options);
    ClosedLoopOptions loop;
    loop.outstanding = 1;
    loop.read_frac = 1.0;
    loop.sectors = 8;
    loop.warmup_ops = 200;
    loop.measure_ops = 2500;
    out.read_ms = RunClosedLoopOnArray(array, loop).latency.MeanMs();
  }
  {
    MimdRaidOptions options;
    options.aspect = aspect;
    options.scheduler = sched;
    options.dataset_sectors = kDataset;
    options.foreground_write_propagation = true;
    MimdRaid array(options);
    ClosedLoopOptions loop;
    loop.outstanding = 16;
    loop.read_frac = 0.6;
    loop.sectors = 8;
    loop.warmup_ops = 200;
    loop.measure_ops = 3500;
    out.mixed_iops = RunClosedLoopOnArray(array, loop).iops;
  }
  return out;
}

// General (k+m) erasure points: same six spindles, m parity columns, so the
// capacity fraction is k/(k+m) rather than the mirror's 1/(Dr*Dm); m = 1 is
// RAID-5. Unlike RunArray's mixed pass, these rigs never set
// foreground_write_propagation: that knob is mirror-only (delayed replica
// propagation vs writing all replicas in the foreground) and the erasure
// branch of MimdRaid::BuildBackend ignores it — a parity small write always does its full RMW or
// reconstruct-write cycle in the foreground. Setting it here would be dead
// config implying a comparison knob that doesn't exist.
Outcome RunErasure(uint32_t parity_shards) {
  Outcome out{};
  const double k = static_cast<double>(kDisks) - parity_shards;
  out.capacity_frac = k / kDisks;
  for (int pass = 0; pass < 2; ++pass) {
    MimdRaidOptions options;
    options.backend = ArrayBackendKind::kErasure;
    options.aspect = Aspect(kDisks, 1);
    options.parity_shards = parity_shards;
    options.scheduler = SchedulerKind::kSatf;
    options.max_scan = 128;
    options.dataset_sectors = kDataset;
    options.seed = 41;
    auto array = std::make_unique<MimdRaid>(options);

    ClosedLoopOptions loop;
    loop.dataset_sectors = kDataset;
    loop.sectors = 8;
    loop.warmup_ops = 200;
    if (pass == 0) {
      loop.outstanding = 1;
      loop.read_frac = 1.0;
      loop.measure_ops = 2500;
    } else {
      loop.outstanding = 16;
      loop.read_frac = 0.6;
      loop.measure_ops = 3500;
    }
    ClosedLoopDriver driver(&array->sim(), array->Submitter(), loop);
    const RunResult r = driver.Run();
    if (pass == 0) {
      out.read_ms = r.latency.MeanMs();
    } else {
      out.mixed_iops = r.iops;
    }
  }
  return out;
}

struct Row {
  const char* label;
  ArrayAspect aspect;
  SchedulerKind sched;
};

const std::vector<Row>& Rows() {
  static const std::vector<Row> rows = {
      {"6x1x1 stripe (SATF)", Aspect(6, 1), SchedulerKind::kSatf},
      {"3x2x1 SR (RSATF)", Aspect(3, 2), SchedulerKind::kRsatf},
      {"2x3x1 SR (RSATF)", Aspect(2, 3), SchedulerKind::kRsatf},
      {"3x1x2 RAID-10 (SATF)", Aspect(3, 1, 2), SchedulerKind::kSatf},
      {"1x6x1 SR (RSATF)", Aspect(1, 6), SchedulerKind::kRsatf},
      {"1x1x6 mirror (SATF)", Aspect(1, 1, 6), SchedulerKind::kSatf},
  };
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  InitBenchSweep(argc, argv);
  PrintHeader("Ablation: the capacity-performance frontier",
              "six disks, every scheme (reads q=1; 60/40 mix q=16, fg prop)");
  struct EcRow {
    const char* label;
    uint32_t parity_shards;
  };
  const std::vector<EcRow> ec_rows = {
      {"RAID-5 = EC 5+1 (SATF)", 1},
      {"EC 4+2 (SATF)", 2},
      {"EC 3+3 (SATF)", 3},
  };
  DeferredSweep<Outcome> sweep;
  for (const EcRow& row : ec_rows) {
    sweep.Defer([row] { return RunErasure(row.parity_shards); });
  }
  for (const Row& row : Rows()) {
    sweep.Defer([row] { return RunArray(row.aspect, row.sched); });
  }
  sweep.Run();

  std::printf("%-22s %-10s %-14s %s\n", "scheme", "capacity",
              "read latency", "mixed throughput");
  for (const EcRow& row : ec_rows) {
    const Outcome o = sweep.Next();
    std::printf("%-22s %-10.2f %10.2f ms  %8.0f IOPS\n", row.label,
                o.capacity_frac, o.read_ms, o.mixed_iops);
  }
  for (const Row& row : Rows()) {
    const Outcome o = sweep.Next();
    std::printf("%-22s %-10.2f %10.2f ms  %8.0f IOPS\n", row.label,
                1.0 / row.aspect.ReplicasPerBlock(), o.read_ms, o.mixed_iops);
  }
  std::printf(
      "\nthe frontier: capacity falls left to right across the replication\n"
      "spectrum while read latency improves; RAID-5 and the k+m codes\n"
      "anchor the capacity-efficient end (fraction k/(k+m)) but pay extra\n"
      "accesses per small write, growing with m.\n");
  return 0;
}
