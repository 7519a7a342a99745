// Logical-to-physical mapping for a Ds x Dr x Dm array (Section 2.5's most
// general "SR-Mirror" configuration).
//
// Following Figure 3: a Ds x Dr SR-Array stripes the dataset over ALL
// Ds*Dr disks — each disk holds 1/(Ds*Dr) of the data plus its Dr same-disk
// rotational replicas, so Dr * 1/(Ds*Dr) = 1/Ds of each disk's cylinders are
// in use. "Ds" therefore names the resulting seek span (same as a Ds-way
// stripe), not the column count.
//
//   Ds: seek-reduction degree — 1/Ds of each disk's cylinders hold data.
//   Dr: rotational replicas per block on the *same* disk (SrDiskPlacement).
//   Dm: mirror copies on *different* disks within a group. Copy m's replica
//       set is rotated by m/(Dm*Dr), so with synchronized spindles all
//       Dm*Dr copies are evenly spaced in angle.
//
// The stripe-column count is Ds*Dr; each column is a group of Dm mirrored
// disks, for Ds*Dr*Dm disks total.
//
// Every physical slot gets its own SrDiskPlacement, built from that slot's
// DiskLayout. A build is one pass over the cylinders with O(1) work each
// (DiskLayout::DataHeads), so nothing is shared between slots.
//
// Heterogeneous fleets: each physical disk may have its own DiskLayout
// (different generation — zones, RPM, capacity). A column's capacity is the
// minimum over its Dm mirrors, and stripe units are dealt to columns
// capacity-weighted (argmin of (assigned+1)/weight, ties to the lowest
// column) instead of plain round-robin, so big drives absorb proportionally
// more of the dataset. With identical disks the weighted deal reduces
// exactly to round-robin, so the homogeneous case is bit-for-bit unchanged.
//
// Degenerate shapes: Dx1x1 = striping, 1x1xD = D-way mirror, Dsx1x2 = the
// common RAID-10, DsxDrx1 = SR-Array.
#ifndef MIMDRAID_SRC_ARRAY_ARRAY_LAYOUT_H_
#define MIMDRAID_SRC_ARRAY_ARRAY_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "src/array/placement.h"
#include "src/disk/layout.h"
#include "src/model/configurator.h"

namespace mimdraid {

struct ReplicaLocation {
  uint32_t disk = 0;
  uint64_t lba = 0;
};

// A physically contiguous piece of a logical request, confined to one stripe
// column and one track group, together with every physical copy of it.
struct ArrayFragment {
  uint64_t logical_lba = 0;
  uint32_t sectors = 0;
  uint32_t group = 0;  // stripe column
  // All Dm*Dr copies, ordered mirror-major: replicas[m*Dr + r]. Every copy is
  // physically contiguous for `sectors` sectors.
  std::vector<ReplicaLocation> replicas;
};

class ArrayLayout {
 public:
  // All disks share `disk_layout`'s geometry (homogeneous array).
  // `dataset_sectors` is the logical capacity exposed; it must fit in
  // Ds * per-disk capacity at replication degree Dr.
  ArrayLayout(const DiskLayout* disk_layout, const ArrayAspect& aspect,
              uint32_t stripe_unit_sectors, uint64_t dataset_sectors,
              PlacementMode placement_mode = PlacementMode::kCrossTrack);

  // Heterogeneous array: one DiskLayout per physical slot, in DiskFor()
  // order (disk_layouts.size() == aspect.TotalDisks()). The dataset must fit
  // in the summed column capacities at replication degree Dr.
  ArrayLayout(std::vector<const DiskLayout*> disk_layouts,
              const ArrayAspect& aspect, uint32_t stripe_unit_sectors,
              uint64_t dataset_sectors,
              PlacementMode placement_mode = PlacementMode::kCrossTrack);

  const ArrayAspect& aspect() const { return aspect_; }
  uint64_t dataset_sectors() const { return dataset_sectors_; }
  uint32_t num_disks() const {
    return static_cast<uint32_t>(aspect_.TotalDisks());
  }
  // Stripe columns (groups of Dm mirrored disks): Ds*Dr.
  uint32_t num_groups() const {
    return static_cast<uint32_t>(aspect_.ds * aspect_.dr);
  }
  uint32_t stripe_unit_sectors() const { return stripe_unit_sectors_; }

  // Placement of a specific physical disk (per-slot geometry).
  const SrDiskPlacement& placement_for(uint32_t disk) const {
    return placements_[disk];
  }

  // Logical sectors stored in stripe column `group`.
  uint64_t column_sectors(uint32_t group) const {
    return static_cast<uint64_t>(column_units_[group]) * stripe_unit_sectors_;
  }

  // Largest per-column share of the dataset (== every column's share in the
  // homogeneous case). Rebuild work on any one disk is bounded by this.
  uint64_t per_disk_sectors() const { return per_disk_sectors_; }

  // Physical disk index of mirror copy m in stripe column `group`.
  uint32_t DiskFor(uint32_t group, uint32_t mirror) const {
    return group * static_cast<uint32_t>(aspect_.dm) + mirror;
  }

  // Splits a logical request into fragments with full replica sets.
  std::vector<ArrayFragment> Map(uint64_t lba, uint32_t sectors) const;

  // Highest cylinder used on any disk (the seek span workloads experience).
  uint32_t CylinderSpan() const;

 private:
  // Stripe column and within-column unit row of stripe unit `unit_index`.
  void LocateUnit(uint64_t unit_index, uint32_t* group, uint64_t* row) const;

  ArrayAspect aspect_;
  uint32_t stripe_unit_sectors_;
  uint64_t dataset_sectors_;
  uint64_t per_disk_sectors_ = 0;
  // Indexed by physical slot.
  std::vector<SrDiskPlacement> placements_;
  // Units dealt to each column; empty deal tables mean plain round-robin.
  std::vector<uint32_t> column_units_;
  std::vector<uint32_t> unit_group_;  // column of stripe unit i
  std::vector<uint32_t> unit_row_;    // within-column row of stripe unit i
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_ARRAY_ARRAY_LAYOUT_H_
