#include "src/ec/ec_layout.h"

#include <algorithm>

namespace mimdraid {

EcLayout::EcLayout(uint32_t num_disks, uint32_t data_shards,
                   uint32_t stripe_unit_sectors, uint64_t per_disk_sectors)
    : num_disks_(num_disks),
      k_(data_shards),
      unit_(stripe_unit_sectors),
      per_disk_sectors_(per_disk_sectors) {
  MIMDRAID_CHECK_GE(num_disks, 2u);
  MIMDRAID_CHECK_GE(data_shards, 1u);
  MIMDRAID_CHECK_LT(data_shards, num_disks);
  MIMDRAID_CHECK_GT(stripe_unit_sectors, 0u);
  rows_ = static_cast<uint32_t>(per_disk_sectors / unit_);
  MIMDRAID_CHECK_GT(rows_, 0u);
  data_capacity_ = static_cast<uint64_t>(rows_) * k_ * unit_;
}

std::vector<EcFragment> EcLayout::Map(uint64_t lba, uint32_t sectors) const {
  MIMDRAID_CHECK_GT(sectors, 0u);
  MIMDRAID_CHECK_LE(lba + sectors, data_capacity_);
  std::vector<EcFragment> out;
  uint64_t cur = lba;
  uint32_t remaining = sectors;
  while (remaining > 0) {
    const uint64_t unit_index = cur / unit_;
    const uint32_t offset = static_cast<uint32_t>(cur % unit_);
    const uint32_t row = static_cast<uint32_t>(unit_index / k_);
    const uint32_t shard = static_cast<uint32_t>(unit_index % k_);
    EcFragment frag;
    frag.logical_lba = cur;
    frag.sectors = std::min(remaining, unit_ - offset);
    frag.row = row;
    frag.shard_index = shard;
    frag.data_disk = DataDiskOf(row, shard);
    // Every row member (data and parity) mirrors the same in-row offset.
    frag.disk_lba = static_cast<uint64_t>(row) * unit_ + offset;
    out.push_back(frag);
    cur += frag.sectors;
    remaining -= frag.sectors;
  }
  return out;
}

}  // namespace mimdraid
