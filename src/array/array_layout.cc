#include "src/array/array_layout.h"

#include <algorithm>
#include <limits>

#include "src/util/check.h"

namespace mimdraid {

ArrayLayout::ArrayLayout(const DiskLayout* disk_layout,
                         const ArrayAspect& aspect,
                         uint32_t stripe_unit_sectors,
                         uint64_t dataset_sectors,
                         PlacementMode placement_mode)
    : ArrayLayout(std::vector<const DiskLayout*>(aspect.TotalDisks(),
                                                 disk_layout),
                  aspect, stripe_unit_sectors, dataset_sectors,
                  placement_mode) {}

ArrayLayout::ArrayLayout(std::vector<const DiskLayout*> disk_layouts,
                         const ArrayAspect& aspect,
                         uint32_t stripe_unit_sectors,
                         uint64_t dataset_sectors,
                         PlacementMode placement_mode)
    : aspect_(aspect),
      stripe_unit_sectors_(stripe_unit_sectors),
      dataset_sectors_(dataset_sectors) {
  MIMDRAID_CHECK_GE(aspect.ds, 1);
  MIMDRAID_CHECK_GE(aspect.dr, 1);
  MIMDRAID_CHECK_GE(aspect.dm, 1);
  MIMDRAID_CHECK_GT(stripe_unit_sectors, 0u);
  MIMDRAID_CHECK_GT(dataset_sectors, 0u);
  MIMDRAID_CHECK_EQ(disk_layouts.size(),
                    static_cast<size_t>(aspect.TotalDisks()));

  placements_.reserve(disk_layouts.size());
  for (const DiskLayout* disk_layout : disk_layouts) {
    MIMDRAID_CHECK(disk_layout != nullptr);
    placements_.emplace_back(disk_layout, aspect.dr, placement_mode);
  }

  // A column's weight is the stripe units its weakest mirror can hold.
  const uint32_t columns = num_groups();
  std::vector<uint64_t> weight(columns, 0);
  for (uint32_t c = 0; c < columns; ++c) {
    uint64_t cap = std::numeric_limits<uint64_t>::max();
    for (uint32_t m = 0; m < static_cast<uint32_t>(aspect.dm); ++m) {
      cap = std::min(cap, placement_for(DiskFor(c, m)).capacity_sectors());
    }
    weight[c] = cap / stripe_unit_sectors;
  }

  // Stripe rows are whole units; the last partial row still occupies a unit
  // on its column.
  const uint64_t units =
      (dataset_sectors + stripe_unit_sectors - 1) / stripe_unit_sectors;
  column_units_.assign(columns, 0);

  const bool equal_weights =
      std::all_of(weight.begin(), weight.end(),
                  [&](uint64_t w) { return w == weight[0]; });
  if (equal_weights) {
    // Equal weights make the capacity-weighted deal exactly round-robin
    // (argmin of (assigned+1)/w cycles through the columns in index order),
    // so skip the deal tables and use the closed form.
    const uint64_t units_per_disk = (units + columns - 1) / columns;
    MIMDRAID_CHECK_LE(units_per_disk, weight[0]);
    per_disk_sectors_ = units_per_disk * stripe_unit_sectors;
    for (uint32_t c = 0; c < columns; ++c) {
      column_units_[c] = static_cast<uint32_t>((units + columns - 1 - c) /
                                               columns);
    }
    return;
  }

  // Capacity-weighted deal: give the next unit to the column whose fill
  // fraction after taking it, (assigned+1)/weight, is smallest; ties go to
  // the lowest column index; full columns are skipped. Compared with
  // cross-multiplication to stay exact.
  unit_group_.reserve(units);
  unit_row_.reserve(units);
  std::vector<uint64_t> assigned(columns, 0);
  for (uint64_t i = 0; i < units; ++i) {
    uint32_t best = columns;
    for (uint32_t c = 0; c < columns; ++c) {
      if (assigned[c] >= weight[c]) {
        continue;  // column full
      }
      if (best == columns ||
          (assigned[c] + 1) * weight[best] < (assigned[best] + 1) * weight[c]) {
        best = c;
      }
    }
    MIMDRAID_CHECK_LT(best, columns);  // dataset must fit the fleet
    unit_group_.push_back(best);
    MIMDRAID_CHECK_LE(assigned[best],
                      std::numeric_limits<uint32_t>::max());
    unit_row_.push_back(static_cast<uint32_t>(assigned[best]));
    ++assigned[best];
  }
  for (uint32_t c = 0; c < columns; ++c) {
    column_units_[c] = static_cast<uint32_t>(assigned[c]);
    per_disk_sectors_ = std::max(
        per_disk_sectors_, assigned[c] * stripe_unit_sectors);
  }
}

void ArrayLayout::LocateUnit(uint64_t unit_index, uint32_t* group,
                             uint64_t* row) const {
  if (unit_group_.empty()) {
    const uint64_t columns = num_groups();
    *group = static_cast<uint32_t>(unit_index % columns);
    *row = unit_index / columns;
    return;
  }
  MIMDRAID_CHECK_LT(unit_index, unit_group_.size());
  *group = unit_group_[unit_index];
  *row = unit_row_[unit_index];
}

std::vector<ArrayFragment> ArrayLayout::Map(uint64_t lba,
                                            uint32_t sectors) const {
  MIMDRAID_CHECK_GT(sectors, 0u);
  MIMDRAID_CHECK_LE(lba + sectors, dataset_sectors_);
  std::vector<ArrayFragment> out;
  const uint32_t unit = stripe_unit_sectors_;
  const int dr = aspect_.dr;
  const int dm = aspect_.dm;

  uint64_t cur = lba;
  uint32_t remaining = sectors;
  while (remaining > 0) {
    const uint64_t stripe_index = cur / unit;
    const uint32_t offset_in_unit = static_cast<uint32_t>(cur % unit);
    uint32_t group = 0;
    uint64_t row = 0;
    LocateUnit(stripe_index, &group, &row);
    const uint64_t disk_sector = row * unit + offset_in_unit;

    // Clip to the stripe unit and to the track-group run of every mirror in
    // the column (mirrors of different generations may break groups at
    // different logical sectors).
    uint32_t len = std::min(remaining, unit - offset_in_unit);
    for (int m = 0; m < dm; ++m) {
      len = std::min(len, placement_for(DiskFor(group, m))
                              .ContiguousRun(disk_sector));
    }

    ArrayFragment frag;
    frag.group = group;
    frag.replicas.reserve(static_cast<size_t>(dm) * dr);
    for (int m = 0; m < dm; ++m) {
      const double base_angle =
          static_cast<double>(m) / static_cast<double>(dm * dr);
      const uint32_t disk = DiskFor(group, static_cast<uint32_t>(m));
      const SrDiskPlacement& placement = placement_for(disk);
      const DiskLayout& dl = placement.layout();
      for (int r = 0; r < dr; ++r) {
        const uint64_t phys = placement.PhysicalLba(disk_sector, r, base_angle);
        frag.replicas.push_back(ReplicaLocation{disk, phys});
        // A rotated copy must stay LBA-contiguous: clip at the point where
        // its slot range would wrap past the end of the track.
        const Chs chs = dl.ToChs(phys);
        const uint32_t spt = dl.geometry().SectorsPerTrack(chs.cylinder);
        len = std::min(len, spt - chs.sector);
      }
    }
    frag.logical_lba = cur;
    frag.sectors = len;
    out.push_back(std::move(frag));

    cur += len;
    remaining -= len;
  }
  return out;
}

uint32_t ArrayLayout::CylinderSpan() const {
  uint32_t span = 0;
  for (uint32_t d = 0; d < num_disks(); ++d) {
    const uint32_t group = d / static_cast<uint32_t>(aspect_.dm);
    span = std::max(span,
                    placement_for(d).CylinderSpan(column_sectors(group)));
  }
  return span;
}

}  // namespace mimdraid
