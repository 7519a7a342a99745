// Virtual-array layer: the allocator's four placement policies (capacity
// conservation, no over-allocation, determinism under PointSeed) and an
// end-to-end multi-tenant run over a mixed-generation fleet with per-VA
// stats exported into one shared registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/core/mimd_raid.h"
#include "src/obs/stats_registry.h"
#include "src/obs/trace_collector.h"
#include "src/util/rng.h"
#include "src/va/virtual_array.h"

namespace mimdraid {
namespace {

constexpr uint64_t kStepBudget = 30'000'000;

// A slower, bigger drive generation next to MakeTestGeometry()'s: 7200 RPM
// and 50% more cylinders, so capacities (and the capacity-weighted deal)
// genuinely differ across generations.
DiskGeometry MakeSlowBigGeometry() {
  DiskGeometry g = MakeTestGeometry();
  g.rpm = 7200;
  g.num_cylinders = 90;
  return g;
}

// Two generations; `big_drives` fleet slots run the big generation (listed
// first), the rest the small one.
FleetSpec MakeMixedFleet(size_t num_drives, size_t big_drives) {
  FleetSpec fleet;
  DriveParams big;
  big.name = "big7200";
  big.geometry = MakeSlowBigGeometry();
  big.profile = MakeTestSeekProfile();
  fleet.generations.push_back(big);
  DriveParams small;
  small.name = "small10k";
  small.geometry = MakeTestGeometry();
  small.profile = MakeTestSeekProfile();
  fleet.generations.push_back(small);
  for (size_t d = 0; d < num_drives; ++d) {
    fleet.slot_generation.push_back(d < big_drives ? 0u : 1u);
  }
  return fleet;
}

FleetSpec MakeUniformFleet(size_t num_drives) {
  return MakeMixedFleet(num_drives, /*big_drives=*/0);
}

VaRequest MirrorRequest(const std::string& name, uint64_t dataset = 2400) {
  VaRequest r;
  r.name = name;
  r.backend = ArrayBackendKind::kMirror;
  r.aspect.ds = 2;
  r.aspect.dr = 1;
  r.aspect.dm = 2;
  r.dataset_sectors = dataset;
  r.stripe_unit_sectors = 16;
  return r;
}

VaRequest Raid5Request(const std::string& name, uint64_t dataset = 2400) {
  VaRequest r;
  r.name = name;
  r.backend = ArrayBackendKind::kRaid5;
  r.aspect.ds = 4;
  r.aspect.dr = 1;
  r.aspect.dm = 1;
  r.dataset_sectors = dataset;
  r.stripe_unit_sectors = 16;
  return r;
}

VaRequest ErasureRequest(const std::string& name, uint64_t dataset = 2400) {
  VaRequest r;
  r.name = name;
  r.backend = ArrayBackendKind::kErasure;
  r.aspect.ds = 4;
  r.aspect.dr = 1;
  r.aspect.dm = 1;
  r.parity_shards = 2;  // a 2+2 code
  r.dataset_sectors = dataset;
  r.stripe_unit_sectors = 16;
  return r;
}

const VaPlacement kAllPolicies[] = {
    VaPlacement::kMostFree, VaPlacement::kLeastFree,
    VaPlacement::kProbabilistic, VaPlacement::kRoundRobin};

TEST(VaAllocatorTest, PerDriveSectorsFollowsRedundancy) {
  // Mirror 2x2x2: 4 columns, 2400/16 = 150 units -> 38 units/column, each
  // sector stored with Dr=2 same-disk replicas.
  VaRequest m = MirrorRequest("m");
  m.aspect.dr = 2;
  EXPECT_EQ(VirtualArrayAllocator::PerDriveSectors(m), 38u * 16u * 2u);
  // RAID-5 over 4 disks: 3 data shares cover the dataset, unit-rounded.
  VaRequest r = Raid5Request("r");
  EXPECT_EQ(VirtualArrayAllocator::PerDriveSectors(r), 800u);
  // Erasure 2+2 over 4 disks: k=2 data shares cover the dataset; every
  // shard (data or parity) reserves the same per-drive extent.
  VaRequest e = ErasureRequest("e");
  EXPECT_EQ(VirtualArrayAllocator::PerDriveSectors(e), 1200u);
}

TEST(VaAllocatorTest, ReleaseFailsFastOnDoubleOrUnknownRelease) {
  VirtualArrayAllocator alloc(MakeUniformFleet(6), 6, VaPlacement::kMostFree,
                              /*seed=*/3);
  const VaAllocation a = *alloc.Allocate(MirrorRequest("a"));
  alloc.Release(a);
  // Releasing the same allocation again must trip the liveness check before
  // any free-space is credited, not silently inflate the pool.
  EXPECT_DEATH(alloc.Release(a), "CHECK");

  VirtualArrayAllocator other(MakeUniformFleet(6), 6, VaPlacement::kMostFree,
                              /*seed=*/3);
  const VaAllocation b = *alloc.Allocate(MirrorRequest("b"));
  // An allocation this allocator never granted is just as fatal.
  EXPECT_DEATH(other.Release(b), "CHECK");
}

TEST(VaAllocatorTest, ConservesCapacityAndNeverOverAllocates) {
  for (const VaPlacement policy : kAllPolicies) {
    SCOPED_TRACE(VaPlacementName(policy));
    VirtualArrayAllocator alloc(MakeMixedFleet(8, 3), 8, policy, /*seed=*/9);
    const uint64_t total = alloc.TotalFreeSectors();
    for (uint32_t d = 0; d < alloc.num_drives(); ++d) {
      EXPECT_EQ(alloc.DriveFreeSectors(d), alloc.DriveCapacitySectors(d));
    }

    // Grant VAs until the fleet refuses; every grant must use distinct
    // drives and account exactly.
    std::vector<VaAllocation> granted;
    uint64_t reserved = 0;
    while (true) {
      std::optional<VaAllocation> a =
          alloc.Allocate(MirrorRequest("t" + std::to_string(granted.size())));
      if (!a.has_value()) {
        break;
      }
      ASSERT_EQ(a->drives.size(), 4u);
      std::vector<uint32_t> sorted = a->drives;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << "allocation reused a drive";
      reserved += a->per_drive_sectors * a->drives.size();
      granted.push_back(*a);
      EXPECT_EQ(alloc.TotalFreeSectors(), total - reserved);
      ASSERT_LT(granted.size(), 10'000u) << "allocator never refused";
    }
    EXPECT_GT(granted.size(), 1u);
    // The refusal really was capacity: fewer than 4 drives fit one more VA.
    const uint64_t need =
        VirtualArrayAllocator::PerDriveSectors(MirrorRequest("x"));
    size_t fitting = 0;
    for (uint32_t d = 0; d < alloc.num_drives(); ++d) {
      EXPECT_LE(alloc.DriveFreeSectors(d), alloc.DriveCapacitySectors(d));
      if (alloc.DriveFreeSectors(d) >= need) {
        ++fitting;
      }
    }
    EXPECT_LT(fitting, 4u);

    // Releasing everything restores the fleet exactly.
    for (const VaAllocation& a : granted) {
      alloc.Release(a);
    }
    EXPECT_EQ(alloc.TotalFreeSectors(), total);
    for (uint32_t d = 0; d < alloc.num_drives(); ++d) {
      EXPECT_EQ(alloc.DriveFreeSectors(d), alloc.DriveCapacitySectors(d));
    }
  }
}

TEST(VaAllocatorTest, DeterministicUnderPointSeed) {
  for (const VaPlacement policy : kAllPolicies) {
    SCOPED_TRACE(VaPlacementName(policy));
    VirtualArrayAllocator a(MakeMixedFleet(10, 4), 10, policy, /*seed=*/17);
    VirtualArrayAllocator b(MakeMixedFleet(10, 4), 10, policy, /*seed=*/17);
    for (int i = 0; i < 6; ++i) {
      const VaRequest request = (i % 2 == 0)
                                    ? MirrorRequest("t" + std::to_string(i))
                                    : Raid5Request("t" + std::to_string(i));
      std::optional<VaAllocation> ra = a.Allocate(request);
      std::optional<VaAllocation> rb = b.Allocate(request);
      ASSERT_EQ(ra.has_value(), rb.has_value());
      if (!ra.has_value()) {
        continue;
      }
      EXPECT_EQ(ra->id, rb->id);
      EXPECT_EQ(ra->drives, rb->drives);
      EXPECT_EQ(ra->per_drive_sectors, rb->per_drive_sectors);
    }
  }
}

TEST(VaAllocatorTest, PolicySemanticsOnUniformFleet) {
  // Most-free spreads: with equal capacities the second VA avoids the first
  // VA's (now fuller) drives.
  {
    VirtualArrayAllocator alloc(MakeUniformFleet(8), 8,
                                VaPlacement::kMostFree);
    const VaAllocation first = *alloc.Allocate(MirrorRequest("a"));
    const VaAllocation second = *alloc.Allocate(MirrorRequest("b"));
    for (const uint32_t d : second.drives) {
      for (const uint32_t used : first.drives) {
        EXPECT_NE(d, used);
      }
    }
  }
  // Least-free packs: the second VA lands back on the first VA's drives as
  // long as they still fit.
  {
    VirtualArrayAllocator alloc(MakeUniformFleet(8), 8,
                                VaPlacement::kLeastFree);
    const VaAllocation first = *alloc.Allocate(MirrorRequest("a"));
    const VaAllocation second = *alloc.Allocate(MirrorRequest("b"));
    std::vector<uint32_t> f = first.drives;
    std::vector<uint32_t> s = second.drives;
    std::sort(f.begin(), f.end());
    std::sort(s.begin(), s.end());
    EXPECT_EQ(f, s);
  }
  // Round-robin cycles the cursor across the fleet.
  {
    VirtualArrayAllocator alloc(MakeUniformFleet(8), 8,
                                VaPlacement::kRoundRobin);
    const VaAllocation first = *alloc.Allocate(MirrorRequest("a"));
    const VaAllocation second = *alloc.Allocate(MirrorRequest("b"));
    EXPECT_EQ(first.drives, (std::vector<uint32_t>{0, 1, 2, 3}));
    EXPECT_EQ(second.drives, (std::vector<uint32_t>{4, 5, 6, 7}));
  }
  // Probabilistic stays inside the fleet and picks distinct drives (its
  // determinism is covered above).
  {
    VirtualArrayAllocator alloc(MakeUniformFleet(8), 8,
                                VaPlacement::kProbabilistic, /*seed=*/3);
    const VaAllocation a = *alloc.Allocate(MirrorRequest("a"));
    std::vector<uint32_t> drives = a.drives;
    std::sort(drives.begin(), drives.end());
    EXPECT_TRUE(std::adjacent_find(drives.begin(), drives.end()) ==
                drives.end());
    EXPECT_LT(drives.back(), 8u);
  }
}

TEST(VaAllocatorTest, OversizedRequestRefusedWithoutStateChange) {
  for (const VaPlacement policy : kAllPolicies) {
    SCOPED_TRACE(VaPlacementName(policy));
    VirtualArrayAllocator alloc(MakeMixedFleet(6, 2), 6, policy);
    const uint64_t total = alloc.TotalFreeSectors();
    VaRequest huge = MirrorRequest("huge");
    huge.dataset_sectors = 100'000'000;
    EXPECT_FALSE(alloc.Allocate(huge).has_value());
    EXPECT_EQ(alloc.TotalFreeSectors(), total);
  }
}

// Pumps `array` until `ops` submitted operations have completed kOk.
void RunOps(MimdRaid* array, int ops, uint64_t seed) {
  Rng rng(seed);
  int done = 0;
  int ok = 0;
  for (int i = 0; i < ops; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(16));
    const uint64_t lba =
        rng.UniformU64(array->backend().dataset_sectors() - sectors);
    const DiskOp op = rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite;
    array->backend().Submit(op, lba, sectors, [&](const IoResult& r) {
      ++done;
      if (r.status == IoStatus::kOk) {
        ++ok;
      }
    });
  }
  uint64_t steps = 0;
  while (done < ops) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, kStepBudget) << "completions lost";
  }
  EXPECT_EQ(ok, ops);
  while (!array->backend().Idle() && array->sim().Step()) {
  }
}

TEST(VaEndToEndTest, MixedGenerationMultiTenantRunExportsPerVaStats) {
  // Fleet: 2 big drives + 6 small ones. Most-free placement ranks the big
  // drives first, so the 4-drive mirror tenant spans both generations — the
  // per-slot geometry path end to end.
  const FleetSpec fleet = MakeMixedFleet(8, 2);
  VirtualArrayAllocator alloc(fleet, 8, VaPlacement::kMostFree, /*seed=*/5);
  VaHost host(&alloc);

  MimdRaidOptions base;
  base.scheduler = SchedulerKind::kSatf;
  base.seed = 7;

  const VaAllocation mirror_va = *alloc.Allocate(MirrorRequest("tenantA"));
  const VaAllocation raid5_va = *alloc.Allocate(Raid5Request("tenantB"));
  const VaAllocation ec_va = *alloc.Allocate(ErasureRequest("tenantC"));

  // The mirror tenant really is mixed-generation.
  bool has_big = false;
  bool has_small = false;
  for (const uint32_t d : mirror_va.drives) {
    (fleet.GenerationFor(d) == 0 ? has_big : has_small) = true;
  }
  EXPECT_TRUE(has_big && has_small)
      << "placement did not mix generations; test fleet shape is off";

  TraceCollector collector_a;
  MimdRaidOptions base_a = base;
  base_a.collector = &collector_a;
  MimdRaid& tenant_a = host.Add(mirror_va, base_a);
  MimdRaid& tenant_b = host.Add(raid5_va, base);
  MimdRaid& tenant_c = host.Add(ec_va, base);
  // Materialize carried the erasure width through to the array.
  EXPECT_EQ(tenant_c.options().parity_shards, 2u);

  // Slots inherit the physical drives' generations: mixed geometry in one
  // array.
  EXPECT_EQ(tenant_a.options().fleet.slot_generation.size(), 4u);
  EXPECT_NE(tenant_a.disk(0).layout().num_data_sectors(),
            tenant_a.disk(3).layout().num_data_sectors());

  RunOps(&tenant_a, 120, 101);
  RunOps(&tenant_b, 120, 103);
  RunOps(&tenant_c, 120, 107);

  StatsRegistry registry;
  host.ExportAllStats(&registry);
  ExportVaTrace(collector_a, "tenantA", &registry);

  EXPECT_GT(registry.Get("va.tenantA.array.reads_completed"), 0.0);
  EXPECT_GT(registry.Get("va.tenantB.ec.reads_completed"), 0.0);
  EXPECT_GT(registry.Get("va.tenantC.ec.reads_completed"), 0.0);
  EXPECT_TRUE(registry.Contains("va.tenantA.fault.spare_rejected"));
  EXPECT_TRUE(registry.Contains("va.tenantB.fault.spare_rejected"));
  // The trace namespace lands under the same tenant prefix.
  bool trace_key_seen = false;
  for (const auto& [name, value] : registry.values()) {
    if (name.rfind("va.tenantA.", 0) == 0 &&
        name.find("fault.") == std::string::npos &&
        name.find("array.") == std::string::npos) {
      trace_key_seen = true;
      (void)value;
      break;
    }
  }
  EXPECT_TRUE(trace_key_seen) << "no trace-collector keys under va.tenantA.";

  // Releasing every tenant restores the fleet.
  const uint64_t before_release = alloc.TotalFreeSectors();
  alloc.Release(mirror_va);
  alloc.Release(raid5_va);
  alloc.Release(ec_va);
  EXPECT_GT(alloc.TotalFreeSectors(), before_release);
  for (uint32_t d = 0; d < alloc.num_drives(); ++d) {
    EXPECT_EQ(alloc.DriveFreeSectors(d), alloc.DriveCapacitySectors(d));
  }
}

}  // namespace
}  // namespace mimdraid
