// HDA frontier: generation mixes × virtual-array placement policies.
//
// The paper buys Dt identical drives and hands them all to one array. A
// consolidated installation instead grows a fleet across drive generations
// and carves per-tenant virtual arrays out of it. This bench sweeps that
// frontier: a fixed fleet size whose composition shifts from all-new
// (small, 10k RPM) to all-old (50% bigger, 7200 RPM — capacity traded back
// for performance, the paper's axis run in reverse), crossed with the four
// VA placement policies. For every point it packs alternating mirror /
// RAID-5 tenants until the allocator refuses, then runs a closed-loop
// workload on the first tenant pair and reports tenants packed, leftover
// capacity, and per-tenant mean response time.
//
// Expected shape: old-heavy mixes pack more tenants (bigger drives) but
// serve them slower (7200 RPM); the packing policies (least-free) leave the
// most contiguous free capacity while the spreading policies (most-free,
// probabilistic, round-robin) trade that headroom for balance. Every number
// is deterministic: goldens lock this output byte for byte at any --jobs.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/va/virtual_array.h"

using namespace mimdraid;
using namespace mimdraid::bench;

namespace {

constexpr size_t kFleetDrives = 8;
constexpr uint64_t kTenantDataset = 2400;
constexpr int kOpsPerTenant = 200;
constexpr int kLoopDepth = 4;

// Two generations: the "new" drive is the small fast test geometry, the
// "old" one spins at 7200 RPM with 50% more cylinders.
FleetSpec MakeMixFleet(size_t old_drives) {
  DriveParams old_gen;
  old_gen.name = "old7200";
  old_gen.geometry = MakeTestGeometry();
  old_gen.geometry.rpm = 7200;
  old_gen.geometry.num_cylinders = 90;
  old_gen.profile = MakeTestSeekProfile();
  DriveParams new_gen;
  new_gen.name = "new10k";
  new_gen.geometry = MakeTestGeometry();
  new_gen.profile = MakeTestSeekProfile();
  FleetSpec fleet;
  fleet.generations = {old_gen, new_gen};
  for (size_t d = 0; d < kFleetDrives; ++d) {
    fleet.slot_generation.push_back(d < old_drives ? 0u : 1u);
  }
  return fleet;
}

VaRequest TenantRequest(size_t index) {
  VaRequest r;
  r.name = "t";
  r.name += std::to_string(index);
  if (index % 2 == 0) {
    r.backend = ArrayBackendKind::kMirror;
    r.aspect = Aspect(2, 1, 2);
  } else {
    r.backend = ArrayBackendKind::kRaid5;
    r.aspect = Aspect(4, 1, 1);
  }
  r.dataset_sectors = kTenantDataset;
  r.stripe_unit_sectors = 16;
  return r;
}

// Closed-loop pump (depth kLoopDepth): mean response time over `ops`
// completed operations, in milliseconds.
double RunClosedLoopMs(MimdRaid* array, int ops, uint64_t seed) {
  Rng rng(seed);
  int submitted = 0;
  int done = 0;
  int64_t total_us = 0;
  std::function<void()> submit_one = [&] {
    ++submitted;
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(16));
    const uint64_t lba =
        rng.UniformU64(array->backend().dataset_sectors() - sectors);
    const DiskOp op = rng.Bernoulli(0.65) ? DiskOp::kRead : DiskOp::kWrite;
    const SimTime start = array->sim().Now();
    array->backend().Submit(op, lba, sectors, [&, start](const IoResult& r) {
      MIMDRAID_CHECK(r.status == IoStatus::kOk);
      total_us += (array->sim().Now() - start).us();
      ++done;
      if (submitted < ops) {
        submit_one();
      }
    });
  };
  for (int i = 0; i < kLoopDepth && submitted < ops; ++i) {
    submit_one();
  }
  uint64_t steps = 0;
  while (done < ops) {
    MIMDRAID_CHECK(array->sim().Step());
    MIMDRAID_CHECK_LT(++steps, 30'000'000u);
  }
  return static_cast<double>(total_us) / static_cast<double>(ops) / 1000.0;
}

struct FrontierPoint {
  int tenants_fit = 0;
  double free_frac = 0.0;
  double mirror_ms = -1.0;  // first mirror tenant; -1 if none fit
  double raid5_ms = -1.0;   // first RAID-5 tenant; -1 if none fit
};

FrontierPoint MeasurePoint(size_t old_drives, VaPlacement policy) {
  VirtualArrayAllocator alloc(MakeMixFleet(old_drives), kFleetDrives, policy,
                              /*seed=*/11);
  const uint64_t total = alloc.TotalFreeSectors();

  std::vector<VaAllocation> granted;
  while (true) {
    std::optional<VaAllocation> a =
        alloc.Allocate(TenantRequest(granted.size()));
    if (!a.has_value()) {
      break;
    }
    granted.push_back(std::move(*a));
  }

  FrontierPoint point;
  point.tenants_fit = static_cast<int>(granted.size());
  point.free_frac = static_cast<double>(alloc.TotalFreeSectors()) /
                    static_cast<double>(total);

  MimdRaidOptions base;
  base.scheduler = SchedulerKind::kSatf;
  base.seed = 42;
  for (size_t t = 0; t < granted.size() && t < 2; ++t) {
    MimdRaid tenant(alloc.Materialize(granted[t], base));
    const double ms =
        RunClosedLoopMs(&tenant, kOpsPerTenant, /*seed=*/101 + t);
    if (granted[t].request.backend == ArrayBackendKind::kMirror) {
      point.mirror_ms = ms;
    } else {
      point.raid5_ms = ms;
    }
  }
  return point;
}

std::string FormatPointMs(double ms) {
  if (ms < 0.0) {
    return "     -";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%6.3f", ms);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  InitBenchSweep(argc, argv);
  PrintHeader("HDA frontier",
              "generation mixes x VA placement (8-drive fleet)");

  const std::vector<size_t> mixes = {0, 2, 4, 6, 8};
  const VaPlacement policies[] = {
      VaPlacement::kMostFree, VaPlacement::kLeastFree,
      VaPlacement::kProbabilistic, VaPlacement::kRoundRobin};

  DeferredSweep<FrontierPoint> sweep;
  for (const size_t old_drives : mixes) {
    for (const VaPlacement policy : policies) {
      sweep.Defer([old_drives, policy] {
        return MeasurePoint(old_drives, policy);
      });
    }
  }
  sweep.Run();

  for (const size_t old_drives : mixes) {
    std::printf("\nmix old=%zu new=%zu\n", old_drives,
                kFleetDrives - old_drives);
    std::printf("  %-14s %-8s %-7s %-10s %-10s\n", "policy", "tenants",
                "free%", "mirror-ms", "raid5-ms");
    for (const VaPlacement policy : policies) {
      const FrontierPoint& p = sweep.Next();
      std::printf("  %-14s %-8d %-7.1f %-10s %-10s\n",
                  VaPlacementName(policy), p.tenants_fit, 100.0 * p.free_frac,
                  FormatPointMs(p.mirror_ms).c_str(),
                  FormatPointMs(p.raid5_ms).c_str());
    }
  }

  std::printf("\nshape: old-heavy fleets pack more tenants at higher mean\n"
              "response; least-free packs tightest, the spreaders balance.\n");
  return 0;
}
