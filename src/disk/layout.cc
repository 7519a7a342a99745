#include "src/disk/layout.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace mimdraid {

DiskLayout::DiskLayout(const DiskGeometry* geometry, uint32_t reserved_tracks,
                       uint32_t spare_tracks_per_zone)
    : geometry_(geometry) {
  MIMDRAID_CHECK(geometry != nullptr);
  MIMDRAID_CHECK(geometry->Valid());
  const uint32_t heads = geometry->num_heads;
  uint64_t lba = 0;
  for (uint32_t zi = 0; zi < geometry->zones.size(); ++zi) {
    const Zone& z = geometry->zones[zi];
    const uint32_t zone_tracks = geometry->ZoneCylinders(zi) * heads;
    const uint32_t reserved = zi == 0 ? reserved_tracks : 0;
    MIMDRAID_CHECK_LT(reserved + spare_tracks_per_zone, zone_tracks);
    ZoneExtent e;
    e.first_track = z.first_cylinder * heads + reserved;
    e.num_data_tracks = zone_tracks - reserved - spare_tracks_per_zone;
    e.first_lba = lba;
    e.spare_first_track = z.first_cylinder * heads + zone_tracks - spare_tracks_per_zone;
    e.num_spare_tracks = spare_tracks_per_zone;
    extents_.push_back(e);
    lba += static_cast<uint64_t>(e.num_data_tracks) * z.sectors_per_track;
  }
  num_data_sectors_ = lba;
  for (const Zone& z : geometry->zones) {
    MIMDRAID_CHECK_LE(z.sectors_per_track, uint32_t{UINT16_MAX});  // SectorPos::spt
  }
  first_data_cylinder_ = extents_[0].first_track / heads;
}

bool DiskLayout::AddBadSector(uint64_t lba) {
  MIMDRAID_CHECK_LT(lba, num_data_sectors_);
  if (remap_.contains(lba)) {
    return false;
  }
  // Natural (pre-remap) position.
  const Chs natural = ToChs(lba);
  const uint32_t zi = geometry_->ZoneIndexOf(natural.cylinder);
  ZoneExtent& e = extents_[zi];
  const Zone& z = geometry_->zones[zi];
  const uint32_t spare_capacity = e.num_spare_tracks * z.sectors_per_track;
  if (e.spare_used >= spare_capacity) {
    return false;
  }
  const uint32_t slot_index = e.spare_used++;
  const uint32_t spare_track = e.spare_first_track + slot_index / z.sectors_per_track;
  Chs spare;
  spare.cylinder = spare_track / geometry_->num_heads;
  spare.head = spare_track % geometry_->num_heads;
  spare.sector = slot_index % z.sectors_per_track;
  remap_[lba] = spare;
  const uint64_t natural_key =
      static_cast<uint64_t>(GlobalTrack(natural.cylinder, natural.head)) *
          z.sectors_per_track +
      natural.sector;
  natural_position_remapped_[natural_key] = lba;
  return true;
}

Chs DiskLayout::ToChs(uint64_t lba, const Zone** zone) const {
  MIMDRAID_CHECK_LT(lba, num_data_sectors_);
  if (has_remaps()) {
    auto it = remap_.find(lba);
    if (it != remap_.end()) {
      // The zone of the spare track the sector now lives on (AddBadSector
      // remaps within a zone, so it is also the LBA's zone).
      *zone = &geometry_->ZoneOf(it->second.cylinder);
      return it->second;
    }
  }
  // Find the zone containing this LBA (zones are few; linear scan).
  uint32_t zi = 0;
  for (size_t i = extents_.size(); i-- > 0;) {
    if (lba >= extents_[i].first_lba) {
      zi = static_cast<uint32_t>(i);
      break;
    }
  }
  const ZoneExtent& e = extents_[zi];
  const Zone& z = geometry_->zones[zi];
  *zone = &z;
  const uint64_t off = lba - e.first_lba;
  const uint32_t track_in_zone = static_cast<uint32_t>(off / z.sectors_per_track);
  MIMDRAID_CHECK_LT(track_in_zone, e.num_data_tracks);
  const uint32_t global_track = e.first_track + track_in_zone;
  Chs chs;
  chs.cylinder = global_track / geometry_->num_heads;
  chs.head = global_track % geometry_->num_heads;
  chs.sector = static_cast<uint32_t>(off % z.sectors_per_track);
  return chs;
}

SectorPos DiskLayout::PositionOf(uint64_t lba) const {
  const Zone* z = nullptr;
  const Chs chs = ToChs(lba, &z);
  return SectorPos{chs.cylinder, static_cast<uint16_t>(SlotOf(chs, *z)),
                   static_cast<uint16_t>(z->sectors_per_track)};
}

uint64_t DiskLayout::ToLba(const Chs& chs) const {
  MIMDRAID_CHECK_LT(chs.cylinder, geometry_->num_cylinders);
  MIMDRAID_CHECK_LT(chs.head, geometry_->num_heads);
  const uint32_t zi = geometry_->ZoneIndexOf(chs.cylinder);
  const ZoneExtent& e = extents_[zi];
  const Zone& z = geometry_->zones[zi];
  MIMDRAID_CHECK_LT(chs.sector, z.sectors_per_track);
  const uint32_t global_track = GlobalTrack(chs.cylinder, chs.head);
  if (global_track < e.first_track ||
      global_track >= e.first_track + e.num_data_tracks) {
    return kInvalidLba;  // reserved or spare track
  }
  const uint64_t natural_key =
      static_cast<uint64_t>(global_track) * z.sectors_per_track + chs.sector;
  if (natural_position_remapped_.contains(natural_key)) {
    return kInvalidLba;  // the sector physically here is marked bad
  }
  return e.first_lba +
         static_cast<uint64_t>(global_track - e.first_track) * z.sectors_per_track +
         chs.sector;
}

uint32_t DiskLayout::TrackStartSlot(uint32_t cylinder, uint32_t head) const {
  return TrackStartSlot(cylinder, head, geometry_->ZoneOf(cylinder));
}

uint32_t DiskLayout::TrackStartSlot(uint32_t cylinder, uint32_t head,
                                    const Zone& z) const {
  const uint32_t heads = geometry_->num_heads;
  // Skew accumulates along the logical track chain: (heads - 1) track skews
  // plus one cylinder skew per full cylinder traversed since the zone start,
  // plus one track skew per head within the current cylinder.
  const uint64_t per_cylinder =
      static_cast<uint64_t>(heads - 1) * z.track_skew + z.cylinder_skew;
  const uint64_t acc =
      static_cast<uint64_t>(cylinder - z.first_cylinder) * per_cylinder +
      static_cast<uint64_t>(head) * z.track_skew;
  return static_cast<uint32_t>(acc % z.sectors_per_track);
}

uint32_t DiskLayout::SlotOf(const Chs& chs) const {
  return SlotOf(chs, geometry_->ZoneOf(chs.cylinder));
}

uint32_t DiskLayout::SlotOf(const Chs& chs, const Zone& z) const {
  return (TrackStartSlot(chs.cylinder, chs.head, z) + chs.sector) %
         z.sectors_per_track;
}

double DiskLayout::AngleOf(const Chs& chs) const {
  const uint32_t spt = geometry_->SectorsPerTrack(chs.cylinder);
  return static_cast<double>(SlotOf(chs)) / spt;
}

uint64_t DiskLayout::LbaForAngle(uint32_t cylinder, uint32_t head,
                                 double angle) const {
  MIMDRAID_CHECK_GE(angle, 0.0);
  MIMDRAID_CHECK_LT(angle, 1.0);
  const uint32_t spt = geometry_->SectorsPerTrack(cylinder);
  // First slot whose start is at or after `angle` (cyclically).
  const uint32_t slot =
      static_cast<uint32_t>(std::ceil(angle * spt - 1e-9)) % spt;
  Chs chs;
  chs.cylinder = cylinder;
  chs.head = head;
  chs.sector = (slot + spt - TrackStartSlot(cylinder, head)) % spt;
  return ToLba(chs);
}

DiskLayout::HeadRange DiskLayout::DataHeads(uint32_t cylinder) const {
  const ZoneExtent& e = extents_[geometry_->ZoneIndexOf(cylinder)];
  const uint32_t cylinder_first = GlobalTrack(cylinder, 0);
  const uint32_t begin = std::max(cylinder_first, e.first_track);
  const uint32_t end = std::min(cylinder_first + geometry_->num_heads,
                                e.first_track + e.num_data_tracks);
  if (begin >= end) {
    return HeadRange{};
  }
  return HeadRange{begin - cylinder_first, end - begin};
}

}  // namespace mimdraid
