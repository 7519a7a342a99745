#include "src/array/placement.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace mimdraid {

SrDiskPlacement::SrDiskPlacement(const DiskLayout* layout, int dr,
                                 PlacementMode mode)
    : layout_(layout), dr_(dr), mode_(mode) {
  MIMDRAID_CHECK(layout != nullptr);
  MIMDRAID_CHECK_GE(dr, 1);
  const DiskGeometry& geo = layout->geometry();
  MIMDRAID_CHECK_LE(static_cast<uint32_t>(dr), geo.num_heads);
  uint64_t logical = 0;
  for (uint32_t c = 0; c < geo.num_cylinders; ++c) {
    const DiskLayout::HeadRange heads = layout->DataHeads(c);
    const uint32_t spt = geo.SectorsPerTrack(c);
    uint32_t groups;
    uint32_t per_group;
    if (mode_ == PlacementMode::kCrossTrack) {
      // A group is Dr whole tracks; it stores one track's worth of data.
      groups = heads.count / static_cast<uint32_t>(dr_);
      per_group = spt;
    } else {
      // A group is a single track holding SPT/Dr logical sectors, each
      // replicated Dr times within the track.
      groups = heads.count;
      per_group = spt / static_cast<uint32_t>(dr_);
    }
    if (groups == 0 || per_group == 0) {
      continue;
    }
    CylinderEntry e;
    e.first_logical = logical;
    e.cylinder = c;
    e.first_head = heads.first;
    e.groups = groups;
    e.spt = spt;
    e.per_group = per_group;
    table_.push_back(e);
    logical += static_cast<uint64_t>(groups) * per_group;
  }
  capacity_sectors_ = logical;
  MIMDRAID_CHECK(!table_.empty());
}

const SrDiskPlacement::CylinderEntry& SrDiskPlacement::EntryFor(
    uint64_t s) const {
  MIMDRAID_CHECK_LT(s, capacity_sectors_);
  // Last entry with first_logical <= s.
  auto it = std::upper_bound(
      table_.begin(), table_.end(), s,
      [](uint64_t v, const CylinderEntry& e) { return v < e.first_logical; });
  MIMDRAID_CHECK(it != table_.begin());
  return *(it - 1);
}

uint64_t SrDiskPlacement::PhysicalLba(uint64_t s, int r,
                                      double base_angle) const {
  MIMDRAID_CHECK_GE(r, 0);
  MIMDRAID_CHECK_LT(r, dr_);
  const CylinderEntry& e = EntryFor(s);
  const uint64_t off = s - e.first_logical;
  const uint32_t group = static_cast<uint32_t>(off / e.per_group);
  const uint32_t sector = static_cast<uint32_t>(off % e.per_group);
  MIMDRAID_CHECK_LT(group, e.groups);

  if (mode_ == PlacementMode::kIntraTrack) {
    // All replicas share the group's single track, spaced SPT/Dr slots
    // apart (exactly even when Dr divides SPT; within a slot otherwise).
    const uint32_t head = e.first_head + group;
    const uint32_t shift =
        static_cast<uint32_t>(std::llround(base_angle * e.spt));
    const uint32_t replica_offset = static_cast<uint32_t>(
        static_cast<uint64_t>(r) * e.spt / static_cast<uint64_t>(dr_));
    const Chs chs{e.cylinder, head,
                  (sector + replica_offset + shift) % e.spt};
    const uint64_t lba = layout_->ToLba(chs);
    MIMDRAID_CHECK_NE(lba, kInvalidLba);
    return lba;
  }

  const uint32_t head =
      e.first_head + group * static_cast<uint32_t>(dr_) + static_cast<uint32_t>(r);

  // Angular placement follows the skew chain of *consecutive* tracks — the
  // paper's "track skews must be re-arranged" requirement: group g's data is
  // placed at the angles of virtual track g (head first_head+g), so a large
  // sequential I/O crossing from group g to g+1 sees exactly one track skew,
  // even though the data physically sits Dr heads apart.
  const Chs virtual_track{e.cylinder, e.first_head + group, sector};
  const double rotate =
      base_angle + static_cast<double>(r) / static_cast<double>(dr_);
  double angle = layout_->AngleOf(virtual_track) + rotate;
  angle -= std::floor(angle);
  // Skip remapped holes (rare: only with bad sectors present).
  for (uint32_t attempt = 0; attempt < e.spt; ++attempt) {
    const uint64_t lba = layout_->LbaForAngle(e.cylinder, head, angle);
    if (lba != kInvalidLba) {
      return lba;
    }
    angle += 1.0 / e.spt;
    if (angle >= 1.0) {
      angle -= 1.0;
    }
  }
  MIMDRAID_CHECK(false);  // a data track cannot be entirely remapped
}

std::vector<uint64_t> SrDiskPlacement::AllReplicas(uint64_t s,
                                                   double base_angle) const {
  std::vector<uint64_t> out;
  out.reserve(dr_);
  for (int r = 0; r < dr_; ++r) {
    out.push_back(PhysicalLba(s, r, base_angle));
  }
  return out;
}

uint32_t SrDiskPlacement::ContiguousRun(uint64_t s) const {
  const CylinderEntry& e = EntryFor(s);
  const uint64_t off = s - e.first_logical;
  return e.per_group - static_cast<uint32_t>(off % e.per_group);
}

uint32_t SrDiskPlacement::CylinderOf(uint64_t s) const {
  return EntryFor(s).cylinder;
}

uint32_t SrDiskPlacement::CylinderSpan(uint64_t sectors) const {
  if (sectors == 0) {
    return 0;
  }
  MIMDRAID_CHECK_LE(sectors, capacity_sectors_);
  return EntryFor(sectors - 1).cylinder;
}

uint64_t SrDiskPlacement::PhysicalSpanSectors(uint64_t sectors) const {
  if (sectors == 0) {
    return 0;
  }
  MIMDRAID_CHECK_LE(sectors, capacity_sectors_);
  const CylinderEntry& e = EntryFor(sectors - 1);
  // Every track of the last used cylinder's group region counts as touched:
  // replicas rotate through the whole group, so the span ends at the last
  // sector of the last group track.
  const uint32_t tracks_used =
      mode_ == PlacementMode::kCrossTrack
          ? e.groups * static_cast<uint32_t>(dr_)
          : e.groups;
  const uint32_t last_head = e.first_head + tracks_used - 1;
  const uint64_t last_lba = layout_->ToLba(Chs{e.cylinder, last_head, e.spt - 1});
  MIMDRAID_CHECK_NE(last_lba, kInvalidLba);
  return last_lba + 1;
}

}  // namespace mimdraid
