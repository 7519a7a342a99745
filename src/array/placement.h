// Per-disk placement of rotationally replicated data (Figure 3).
//
// Each disk's data tracks are grouped into "track groups" of Dr tracks within
// a cylinder. A group stores one track's worth of logical data; replica r of
// a logical sector lives on the group's r-th track, rotated by r/Dr of a
// revolution (plus an optional base angle used to stagger mirror copies on
// other disks). Skews are honored by placing replicas through
// DiskLayout::LbaForAngle, so replicas are evenly spaced in *physical angle*,
// not merely in sector numbering — this is what makes the R/(2 Dr) rotational
// delay of Equation (2) real.
//
// Placing replicas on different tracks (rather than within one track) keeps
// full-track sequential bandwidth intact, as argued in Section 2.2.
//
// The placement keeps one row per cylinder, filled from the outer edge
// inward. A row's capacity comes straight from the zone map: the cylinder's
// data heads (DiskLayout::DataHeads) and its zone's sectors per track.
#ifndef MIMDRAID_SRC_ARRAY_PLACEMENT_H_
#define MIMDRAID_SRC_ARRAY_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "src/disk/layout.h"

namespace mimdraid {

// Where the Dr rotational replicas live.
//
// kCrossTrack (the paper's design): replicas on Dr different tracks of one
// cylinder — full-track sequential bandwidth is preserved.
// kIntraTrack (the rejected alternative, after Ng '91): replicas within one
// track — each track stores only SPT/Dr logical sectors, shortening the
// effective track and multiplying track switches for large I/O (Section 2.2's
// argument; see bench_abl_intratrack for the measurement).
enum class PlacementMode {
  kCrossTrack,
  kIntraTrack,
};

class SrDiskPlacement {
 public:
  // `dr` rotational replicas per logical sector. The placement uses cylinders
  // from the outer edge inward; a striped array simply stores less data per
  // disk and therefore spans proportionally fewer cylinders (that is the
  // "keep disks partially empty" seek reduction of Section 2.1).
  SrDiskPlacement(const DiskLayout* layout, int dr,
                  PlacementMode mode = PlacementMode::kCrossTrack);

  int dr() const { return dr_; }
  PlacementMode mode() const { return mode_; }
  const DiskLayout& layout() const { return *layout_; }

  // Logical sectors this disk can hold at this replication degree.
  uint64_t capacity_sectors() const { return capacity_sectors_; }

  // Physical LBA of replica `r` of logical sector `s`. `base_angle` rotates
  // the whole replica set (used to stagger mirror copies); replica r is
  // placed at the natural angle + base_angle + r/dr.
  uint64_t PhysicalLba(uint64_t s, int r, double base_angle = 0.0) const;

  // All dr replica LBAs of logical sector `s`.
  std::vector<uint64_t> AllReplicas(uint64_t s, double base_angle = 0.0) const;

  // Number of logically contiguous sectors starting at `s` whose replicas are
  // physically contiguous (i.e. up to the track-group boundary).
  uint32_t ContiguousRun(uint64_t s) const;

  // Cylinder holding logical sector `s` (same for all replicas).
  uint32_t CylinderOf(uint64_t s) const;

  // Highest cylinder index used when `sectors` logical sectors are stored
  // (the seek span a workload of that footprint experiences).
  uint32_t CylinderSpan(uint64_t sectors) const;

  // Physical LBAs this placement touches when `sectors` logical sectors are
  // stored: one past the highest physical LBA of any replica. This is the
  // address span a replacement drive must be able to resolve (spare
  // compatibility) and the extent the virtual-array allocator reserves.
  uint64_t PhysicalSpanSectors(uint64_t sectors) const;

 private:
  struct CylinderEntry {
    uint64_t first_logical = 0;  // first logical sector stored in this cylinder
    uint32_t cylinder = 0;
    uint32_t first_head = 0;  // first data head
    uint32_t groups = 0;      // track groups available
    uint32_t spt = 0;
    uint32_t per_group = 0;  // logical sectors stored per group
  };

  const CylinderEntry& EntryFor(uint64_t s) const;

  const DiskLayout* layout_;
  int dr_;
  PlacementMode mode_;
  uint64_t capacity_sectors_ = 0;
  std::vector<CylinderEntry> table_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_ARRAY_PLACEMENT_H_
