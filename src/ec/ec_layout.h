// Rotated (k+m) erasure-coded layout.
//
// Generalizes rotated-parity RAID-5 to m parity shards: each stripe row
// holds k data units and m parity units, and the whole (data..parity)
// position pattern rotates right by one disk per row (position p of row r
// sits on disk (p + r) mod n), so parity traffic spreads evenly across the
// array. This is not the classic left-symmetric order, which rotates the
// other way. k+1 is the RAID-5 shape; k+2 is RAID-6; larger m buys deeper
// fault tolerance at k/(k+m) capacity efficiency — the frontier points
// bench_abl_capacity plots.
#ifndef MIMDRAID_SRC_EC_EC_LAYOUT_H_
#define MIMDRAID_SRC_EC_EC_LAYOUT_H_

#include <cstdint>
#include <vector>

#include "src/util/check.h"

namespace mimdraid {

// A piece of a logical request confined to one stripe unit.
struct EcFragment {
  uint64_t logical_lba = 0;
  uint32_t sectors = 0;
  uint32_t shard_index = 0;  // data shard position within the row (0..k-1)
  uint32_t data_disk = 0;
  uint64_t disk_lba = 0;  // location of the data on data_disk
  uint32_t row = 0;       // stripe row index
};

class EcLayout {
 public:
  // `num_disks` = k + m drives; `data_shards` = k in [1, num_disks);
  // `stripe_unit_sectors` data sectors per unit; `per_disk_sectors` usable
  // sectors on each drive.
  EcLayout(uint32_t num_disks, uint32_t data_shards,
           uint32_t stripe_unit_sectors, uint64_t per_disk_sectors);

  uint32_t num_disks() const { return num_disks_; }
  uint32_t data_shards() const { return k_; }
  uint32_t parity_shards() const { return num_disks_ - k_; }
  uint32_t stripe_unit_sectors() const { return unit_; }
  uint64_t data_capacity_sectors() const { return data_capacity_; }
  uint32_t num_rows() const { return rows_; }

  // Disk holding stripe position `position` of `row`. Positions 0..k-1 are
  // the data shards, k..k+m-1 the parity shards; the whole pattern rotates
  // one disk per row.
  uint32_t DiskOfPosition(uint32_t row, uint32_t position) const {
    MIMDRAID_CHECK_LT(position, num_disks_);
    return (position + row) % num_disks_;
  }
  uint32_t DataDiskOf(uint32_t row, uint32_t shard) const {
    MIMDRAID_CHECK_LT(shard, k_);
    return DiskOfPosition(row, shard);
  }
  uint32_t ParityDiskOf(uint32_t row, uint32_t parity) const {
    MIMDRAID_CHECK_LT(parity, parity_shards());
    return DiskOfPosition(row, k_ + parity);
  }
  // Inverse of DiskOfPosition: the stripe position `disk` plays in `row`.
  uint32_t PositionOfDisk(uint32_t row, uint32_t disk) const {
    MIMDRAID_CHECK_LT(disk, num_disks_);
    return (disk + num_disks_ - row % num_disks_) % num_disks_;
  }

  // Splits a logical request into per-unit fragments.
  std::vector<EcFragment> Map(uint64_t lba, uint32_t sectors) const;

 private:
  uint32_t num_disks_;
  uint32_t k_;
  uint32_t unit_;
  uint64_t per_disk_sectors_;
  uint32_t rows_;
  uint64_t data_capacity_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_EC_EC_LAYOUT_H_
