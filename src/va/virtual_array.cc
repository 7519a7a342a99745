#include "src/va/virtual_array.h"

#include <algorithm>
#include <utility>

#include "src/core/sweep_runner.h"
#include "src/obs/trace_collector.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace mimdraid {

const char* VaPlacementName(VaPlacement placement) {
  switch (placement) {
    case VaPlacement::kMostFree:
      return "most-free";
    case VaPlacement::kLeastFree:
      return "least-free";
    case VaPlacement::kProbabilistic:
      return "probabilistic";
    case VaPlacement::kRoundRobin:
      return "round-robin";
  }
  MIMDRAID_CHECK(false);
}

VirtualArrayAllocator::VirtualArrayAllocator(FleetSpec fleet,
                                             size_t num_drives,
                                             VaPlacement placement,
                                             uint64_t seed)
    : fleet_(std::move(fleet)), placement_(placement), seed_(seed) {
  MIMDRAID_CHECK(fleet_.Valid());
  MIMDRAID_CHECK_GE(num_drives, 1u);
  // Usable sectors per generation (the layout's data region, reserved and
  // spare tracks excluded), computed once and shared by same-generation
  // drives.
  std::vector<uint64_t> generation_capacity;
  generation_capacity.reserve(fleet_.generations.size());
  for (const DriveParams& g : fleet_.generations) {
    DiskLayout layout(&g.geometry);
    generation_capacity.push_back(layout.num_data_sectors());
  }
  capacity_sectors_.reserve(num_drives);
  for (size_t d = 0; d < num_drives; ++d) {
    capacity_sectors_.push_back(generation_capacity[fleet_.GenerationFor(d)]);
  }
  free_sectors_ = capacity_sectors_;
}

uint64_t VirtualArrayAllocator::TotalFreeSectors() const {
  uint64_t total = 0;
  for (const uint64_t f : free_sectors_) {
    total += f;
  }
  return total;
}

uint64_t VirtualArrayAllocator::PerDriveSectors(const VaRequest& request) {
  const uint64_t unit = request.stripe_unit_sectors;
  MIMDRAID_CHECK_GT(unit, 0u);
  MIMDRAID_CHECK_GT(request.dataset_sectors, 0u);
  if (request.backend != ArrayBackendKind::kMirror) {
    // Mirrors MimdRaid's erasure sizing: k = n - m data shares cover the
    // dataset, rounded up to whole stripe units (every shard, data or
    // parity, is the same size).
    const uint64_t n = static_cast<uint64_t>(request.aspect.TotalDisks());
    const uint32_t m = ParityShardsFor(request.backend, request.parity_shards);
    MIMDRAID_CHECK_GE(m, 1u);
    MIMDRAID_CHECK_GT(n, m);
    const uint64_t k = n - m;
    const uint64_t per_data = (request.dataset_sectors + k - 1) / k;
    return (per_data + unit - 1) / unit * unit;
  }
  // Mirror: each of the Ds*Dr columns holds an equal share of the dataset
  // (the conservative bound on the capacity-weighted deal), and every sector
  // of a column carries Dr same-disk rotational replicas.
  const uint64_t columns =
      static_cast<uint64_t>(request.aspect.ds) * request.aspect.dr;
  const uint64_t units = (request.dataset_sectors + unit - 1) / unit;
  const uint64_t units_per_column = (units + columns - 1) / columns;
  return units_per_column * unit * static_cast<uint64_t>(request.aspect.dr);
}

std::optional<VaAllocation> VirtualArrayAllocator::Allocate(
    const VaRequest& request) {
  const size_t need = static_cast<size_t>(request.aspect.TotalDisks());
  const uint64_t per_drive = PerDriveSectors(request);

  std::vector<uint32_t> fitting;
  for (uint32_t d = 0; d < free_sectors_.size(); ++d) {
    if (free_sectors_[d] >= per_drive) {
      fitting.push_back(d);
    }
  }
  if (fitting.size() < need) {
    return std::nullopt;  // never over-allocate the fleet
  }

  std::vector<uint32_t> chosen;
  chosen.reserve(need);
  switch (placement_) {
    case VaPlacement::kMostFree:
    case VaPlacement::kLeastFree: {
      // Stable sort keeps ties in drive-index order (determinism).
      const bool most = placement_ == VaPlacement::kMostFree;
      std::stable_sort(fitting.begin(), fitting.end(),
                       [&](uint32_t a, uint32_t b) {
                         return most ? free_sectors_[a] > free_sectors_[b]
                                     : free_sectors_[a] < free_sectors_[b];
                       });
      chosen.assign(fitting.begin(),
                    fitting.begin() + static_cast<ptrdiff_t>(need));
      break;
    }
    case VaPlacement::kRoundRobin: {
      // First fitting drive at or after the cursor, wrapping; the cursor
      // advances past the last drive taken.
      size_t start = 0;
      while (start < fitting.size() && fitting[start] < cursor_) {
        ++start;
      }
      for (size_t k = 0; k < need; ++k) {
        chosen.push_back(fitting[(start + k) % fitting.size()]);
      }
      cursor_ = (static_cast<size_t>(chosen.back()) + 1) % num_drives();
      break;
    }
    case VaPlacement::kProbabilistic: {
      // Weighted sampling without replacement, weight = free space. The
      // stream depends only on (seed, allocation index), never on wall
      // clock or prior failed probes.
      Rng rng(SweepRunner::PointSeed(seed_, next_id_));
      std::vector<uint32_t> pool = fitting;
      for (size_t k = 0; k < need; ++k) {
        uint64_t total = 0;
        for (const uint32_t d : pool) {
          total += free_sectors_[d];
        }
        uint64_t ticket = rng.UniformU64(total);
        size_t pick = pool.size() - 1;
        for (size_t i = 0; i < pool.size(); ++i) {
          const uint64_t w = free_sectors_[pool[i]];
          if (ticket < w) {
            pick = i;
            break;
          }
          ticket -= w;
        }
        chosen.push_back(pool[pick]);
        pool.erase(pool.begin() + static_cast<ptrdiff_t>(pick));
      }
      break;
    }
  }

  VaAllocation allocation;
  allocation.id = next_id_++;
  allocation.request = request;
  allocation.drives = std::move(chosen);
  allocation.per_drive_sectors = per_drive;
  for (const uint32_t d : allocation.drives) {
    MIMDRAID_CHECK_GE(free_sectors_[d], per_drive);
    free_sectors_[d] -= per_drive;
  }
  live_allocations_.insert(allocation.id);
  return allocation;
}

void VirtualArrayAllocator::Release(const VaAllocation& allocation) {
  // Releasing an id we never granted — or granted and already released —
  // would credit free space the fleet doesn't have; refuse loudly.
  MIMDRAID_CHECK_EQ(live_allocations_.erase(allocation.id), 1u);
  for (const uint32_t d : allocation.drives) {
    free_sectors_[d] += allocation.per_drive_sectors;
    MIMDRAID_CHECK_LE(free_sectors_[d], capacity_sectors_[d]);
  }
}

MimdRaidOptions VirtualArrayAllocator::Materialize(
    const VaAllocation& allocation, const MimdRaidOptions& base) const {
  MIMDRAID_CHECK_EQ(base.hot_spares, 0u);  // spares are fleet-level drives
  MIMDRAID_CHECK_EQ(allocation.drives.size(),
                    static_cast<size_t>(allocation.request.aspect.TotalDisks()));
  MimdRaidOptions options = base;
  options.backend = allocation.request.backend;
  options.aspect = allocation.request.aspect;
  options.dataset_sectors = allocation.request.dataset_sectors;
  options.stripe_unit_sectors = allocation.request.stripe_unit_sectors;
  options.parity_shards = allocation.request.parity_shards;
  options.fleet.generations = fleet_.generations;
  options.fleet.slot_generation.clear();
  options.fleet.slot_generation.reserve(allocation.drives.size());
  for (const uint32_t drive : allocation.drives) {
    options.fleet.slot_generation.push_back(fleet_.GenerationFor(drive));
  }
  options.seed = SweepRunner::PointSeed(base.seed, allocation.id);
  return options;
}

void ExportVaStats(const ArrayBackend& backend, const std::string& va_name,
                   StatsRegistry* registry) {
  StatsRegistry scratch;
  backend.ExportStats(&scratch);
  for (const auto& [name, value] : scratch.values()) {
    registry->Set("va." + va_name + "." + name, value);
  }
}

void ExportVaTrace(const TraceCollector& collector, const std::string& va_name,
                   StatsRegistry* registry) {
  StatsRegistry scratch;
  collector.ExportTo(&scratch);
  for (const auto& [name, value] : scratch.values()) {
    registry->Set("va." + va_name + "." + name, value);
  }
}

MimdRaid& VaHost::Add(const VaAllocation& allocation,
                      const MimdRaidOptions& base) {
  for (const Tenant& t : tenants_) {
    MIMDRAID_CHECK(t.allocation.request.name != allocation.request.name);
  }
  Tenant tenant;
  tenant.allocation = allocation;
  tenant.array =
      std::make_unique<MimdRaid>(allocator_->Materialize(allocation, base));
  tenants_.push_back(std::move(tenant));
  return *tenants_.back().array;
}

const VaHost::Tenant& VaHost::Find(const std::string& name) const {
  for (const Tenant& t : tenants_) {
    if (t.allocation.request.name == name) {
      return t;
    }
  }
  MIMDRAID_CHECK(false);  // unknown tenant name
}

MimdRaid& VaHost::array(const std::string& name) {
  return *Find(name).array;
}

const VaAllocation& VaHost::allocation(const std::string& name) const {
  return Find(name).allocation;
}

void VaHost::ExportAllStats(StatsRegistry* registry) const {
  for (const Tenant& t : tenants_) {
    ExportVaStats(t.array->backend(), t.allocation.request.name, registry);
  }
}

}  // namespace mimdraid
