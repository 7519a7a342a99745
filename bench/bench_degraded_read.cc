// Degraded-read latency: healthy vs one-disk-failed vs rebuilding, for the
// striped mirror (SR-Array family, Dm=2) and RAID-5 on the same six spindles.
//
// The "rebuilding" column is the interesting one for the fault-recovery
// story: rebuild copy traffic rides the delayed queues and is supposed to
// yield to foreground reads, so the mirror's rebuilding latency should sit
// near its degraded latency; RAID-5 pays the reconstruct fan-out either way.
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "src/workload/drivers.h"

using namespace mimdraid;
using namespace mimdraid::bench;

namespace {

constexpr uint64_t kDataset = 1'000'000;  // ~0.5 GB
constexpr int kDisks = 6;

enum class Phase { kHealthy, kDegraded, kRebuilding };

struct Row {
  double healthy_ms = 0.0;
  double degraded_ms = 0.0;
  double rebuilding_ms = 0.0;
  bool rebuild_finished_mid_run = false;
};

ClosedLoopOptions ReadLoop(uint64_t dataset) {
  ClosedLoopOptions loop;
  loop.dataset_sectors = dataset;
  loop.outstanding = 1;
  loop.read_frac = 1.0;
  loop.sectors = 8;
  loop.warmup_ops = 150;
  loop.measure_ops = 2000;
  return loop;
}

// One phase against either backend; both rigs come off the MimdRaid
// assembly path and are driven through the shared ArrayBackend interface.
double RunPhase(MimdRaid* array, Phase phase, bool* rebuilt) {
  if (phase != Phase::kHealthy) {
    MIMDRAID_CHECK(array->backend().FailDisk(SlotId(0)));
  }
  if (phase == Phase::kRebuilding) {
    array->backend().Rebuild(
        SlotId(0), [rebuilt](const IoResult&) { *rebuilt = true; });
  }
  ClosedLoopDriver driver(&array->sim(), array->Submitter(),
                          ReadLoop(kDataset));
  return driver.Run().latency.MeanMs();
}

template <typename MakeArray>
Row RunScheme(MakeArray make_array) {
  Row row;
  for (Phase phase :
       {Phase::kHealthy, Phase::kDegraded, Phase::kRebuilding}) {
    std::unique_ptr<MimdRaid> array = make_array();
    bool rebuilt = false;
    const double ms = RunPhase(array.get(), phase, &rebuilt);
    switch (phase) {
      case Phase::kHealthy:
        row.healthy_ms = ms;
        break;
      case Phase::kDegraded:
        row.degraded_ms = ms;
        break;
      case Phase::kRebuilding:
        row.rebuilding_ms = ms;
        row.rebuild_finished_mid_run = rebuilt;
        break;
    }
  }
  return row;
}

Row RunMirror() {
  return RunScheme([] {
    MimdRaidOptions options;
    options.aspect = Aspect(3, 1, 2);
    options.scheduler = SchedulerKind::kSatf;
    options.dataset_sectors = kDataset;
    return std::make_unique<MimdRaid>(options);
  });
}

Row RunRaid5() {
  return RunScheme([] {
    MimdRaidOptions options;
    options.backend = ArrayBackendKind::kErasure;
    options.aspect = Aspect(kDisks, 1);
    options.parity_shards = 1;
    options.scheduler = SchedulerKind::kSatf;
    options.dataset_sectors = kDataset;
    options.seed = 13;
    return std::make_unique<MimdRaid>(options);
  });
}

void PrintRow(const char* name, const Row& r) {
  std::printf("%-16s %-9.2f ms %-9.2f ms %-9.2f ms %-10.2f %s\n", name,
              r.healthy_ms, r.degraded_ms, r.rebuilding_ms,
              r.rebuilding_ms / r.healthy_ms,
              r.rebuild_finished_mid_run ? "(rebuild finished mid-run)" : "");
}

}  // namespace

int main() {
  PrintHeader("Degraded-read latency",
              "six disks, 8 KB random reads: healthy vs 1 failed vs "
              "rebuilding");
  std::printf("%-16s %-12s %-12s %-12s %-10s\n", "scheme", "healthy",
              "degraded", "rebuilding", "slowdown");
  PrintRow("striped mirror", RunMirror());
  PrintRow("RAID-5", RunRaid5());
  std::printf(
      "\nexpected: mirror reads fail over to the twin, so degraded and\n"
      "rebuilding sit close to healthy (rebuild copy traffic yields to\n"
      "foreground work via the delayed queues); RAID-5 degraded reads pay\n"
      "the N-1-way reconstruct fan-out and rebuilding adds row-copy\n"
      "contention on every surviving spindle.\n");
  return 0;
}
