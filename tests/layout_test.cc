#include <gtest/gtest.h>

#include <cmath>

#include "src/disk/layout.h"

namespace mimdraid {
namespace {

class LayoutTest : public ::testing::Test {
 protected:
  LayoutTest() : geo_(MakeTestGeometry()), layout_(&geo_) {}
  DiskGeometry geo_;
  DiskLayout layout_;  // default: 1 reserved track, 1 spare track/zone
};

TEST_F(LayoutTest, DataSectorCount) {
  // Zone 0: 30 cyl * 4 heads = 120 tracks, minus 1 reserved minus 1 spare =
  // 118 tracks * 40 spt. Zone 1: 120 - 1 spare = 119 tracks * 30 spt.
  EXPECT_EQ(layout_.num_data_sectors(), 118ull * 40 + 119ull * 30);
}

TEST_F(LayoutTest, RoundTripAllSectors) {
  for (uint64_t lba = 0; lba < layout_.num_data_sectors(); ++lba) {
    const Chs chs = layout_.ToChs(lba);
    EXPECT_EQ(layout_.ToLba(chs), lba) << "lba=" << lba;
  }
}

TEST_F(LayoutTest, FirstLbaSkipsReservedTrack) {
  const Chs chs = layout_.ToChs(0);
  EXPECT_EQ(chs.cylinder, 0u);
  EXPECT_EQ(chs.head, 1u);  // head 0 of cylinder 0 is reserved
  EXPECT_EQ(chs.sector, 0u);
}

// True if `head` lies in the cylinder's data-head range.
bool InDataHeads(const DiskLayout& layout, uint32_t cylinder, uint32_t head) {
  const DiskLayout::HeadRange heads = layout.DataHeads(cylinder);
  return head >= heads.first && head < heads.first + heads.count;
}

TEST_F(LayoutTest, ReservedAndSpareTracksNotData) {
  EXPECT_FALSE(InDataHeads(layout_, 0, 0));   // reserved
  EXPECT_TRUE(InDataHeads(layout_, 0, 1));
  EXPECT_FALSE(InDataHeads(layout_, 29, 3));  // zone 0 spare (last track)
  EXPECT_TRUE(InDataHeads(layout_, 30, 0));   // zone 1 first
  EXPECT_FALSE(InDataHeads(layout_, 59, 3));  // zone 1 spare
}

// Every cylinder's DataHeads against a per-track oracle from the public API:
// on a layout without remaps, a track holds data iff some angle on it maps
// to an LBA. Reserved and spare counts that span whole cylinders are covered
// too (a cylinder with no data track gets count 0).
TEST(DataHeadsSweep, MatchesPerTrackOracle) {
  struct Blemishes {
    uint32_t reserved;
    uint32_t spare;
  };
  const DiskGeometry geometries[] = {MakeSt39133Geometry(),
                                     MakeTestGeometry()};
  for (const DiskGeometry& geo : geometries) {
    for (const Blemishes b : {Blemishes{1, 1}, Blemishes{0, 0},
                              Blemishes{5, 5}, Blemishes{13, 2}}) {
      SCOPED_TRACE(::testing::Message()
                   << "heads " << geo.num_heads << " reserved " << b.reserved
                   << " spare " << b.spare);
      const DiskLayout layout(&geo, b.reserved, b.spare);
      for (uint32_t c = 0; c < geo.num_cylinders; ++c) {
        const DiskLayout::HeadRange heads = layout.DataHeads(c);
        ASSERT_LE(heads.first + heads.count, geo.num_heads) << "cyl " << c;
        for (uint32_t h = 0; h < geo.num_heads; ++h) {
          const bool data = layout.LbaForAngle(c, h, 0.0) != kInvalidLba;
          ASSERT_EQ(InDataHeads(layout, c, h), data)
              << "cyl " << c << " head " << h;
        }
      }
    }
  }
}

TEST_F(LayoutTest, ToLbaInvalidOnNonDataTracks) {
  EXPECT_EQ(layout_.ToLba(Chs{0, 0, 5}), kInvalidLba);
  EXPECT_EQ(layout_.ToLba(Chs{29, 3, 0}), kInvalidLba);
}

TEST_F(LayoutTest, SequentialSectorsAreConsecutiveSlots) {
  // Within a track, slot(lba+1) = slot(lba) + 1 (mod spt).
  const Chs c0 = layout_.ToChs(10);
  const Chs c1 = layout_.ToChs(11);
  ASSERT_EQ(c0.cylinder, c1.cylinder);
  ASSERT_EQ(c0.head, c1.head);
  const uint32_t spt = geo_.SectorsPerTrack(c0.cylinder);
  EXPECT_EQ((layout_.SlotOf(c0) + 1) % spt, layout_.SlotOf(c1));
}

TEST_F(LayoutTest, TrackSkewAppliedBetweenHeads) {
  const uint32_t spt = geo_.zones[0].sectors_per_track;
  const uint32_t skew = geo_.zones[0].track_skew;
  // Cylinder 1 (no reserved tracks): head h starts skewed by h*track_skew
  // plus the accumulated cylinder-chain skew.
  const uint32_t base = layout_.TrackStartSlot(1, 0);
  EXPECT_EQ(layout_.TrackStartSlot(1, 1), (base + skew) % spt);
  EXPECT_EQ(layout_.TrackStartSlot(1, 2), (base + 2 * skew) % spt);
}

TEST_F(LayoutTest, CylinderSkewAppliedBetweenCylinders) {
  const Zone& z = geo_.zones[0];
  const uint32_t spt = z.sectors_per_track;
  const uint32_t chain = (geo_.num_heads - 1) * z.track_skew + z.cylinder_skew;
  EXPECT_EQ(layout_.TrackStartSlot(2, 0),
            (layout_.TrackStartSlot(1, 0) + chain) % spt);
}

TEST_F(LayoutTest, SkewResetsAtZoneBoundary) {
  EXPECT_EQ(layout_.TrackStartSlot(30, 0), 0u);
}

TEST_F(LayoutTest, AngleMatchesSlotFraction) {
  const Chs chs = layout_.ToChs(123);
  const uint32_t spt = geo_.SectorsPerTrack(chs.cylinder);
  EXPECT_DOUBLE_EQ(layout_.AngleOf(chs),
                   static_cast<double>(layout_.SlotOf(chs)) / spt);
}

TEST_F(LayoutTest, LbaForAngleReturnsSectorAtOrAfterAngle) {
  for (double angle : {0.0, 0.1, 0.25, 0.5, 0.77, 0.99}) {
    const uint64_t lba = layout_.LbaForAngle(5, 2, angle);
    ASSERT_NE(lba, kInvalidLba);
    const Chs chs = layout_.ToChs(lba);
    EXPECT_EQ(chs.cylinder, 5u);
    EXPECT_EQ(chs.head, 2u);
    const double got = layout_.AngleOf(chs);
    // At-or-cyclically-after within one slot.
    double delta = got - angle;
    if (delta < 0) {
      delta += 1.0;
    }
    EXPECT_LT(delta, 1.0 / geo_.SectorsPerTrack(5) + 1e-9);
  }
}

TEST_F(LayoutTest, LbaForAngleRoundTripsOwnAngle) {
  // The angle of an existing sector maps back to that sector.
  const uint64_t lba = 777;
  const Chs chs = layout_.ToChs(lba);
  EXPECT_EQ(layout_.LbaForAngle(chs.cylinder, chs.head, layout_.AngleOf(chs)),
            lba);
}

TEST_F(LayoutTest, LbaForAngleInvalidOnReservedTrack) {
  EXPECT_EQ(layout_.LbaForAngle(0, 0, 0.5), kInvalidLba);
}

TEST_F(LayoutTest, BadSectorRemapsToSpare) {
  const uint64_t victim = 1000;
  const Chs natural = layout_.ToChs(victim);
  ASSERT_TRUE(layout_.AddBadSector(victim));
  EXPECT_TRUE(layout_.IsRemapped(victim));
  const Chs spare = layout_.ToChs(victim);
  EXPECT_NE(spare, natural);
  // Spare lives on a spare track of the same zone.
  EXPECT_FALSE(InDataHeads(layout_, spare.cylinder, spare.head));
  EXPECT_EQ(geo_.ZoneIndexOf(spare.cylinder), geo_.ZoneIndexOf(natural.cylinder));
  // The vacated natural position no longer maps to an LBA.
  EXPECT_EQ(layout_.ToLba(natural), kInvalidLba);
}

TEST_F(LayoutTest, AddBadSectorTwiceFails) {
  ASSERT_TRUE(layout_.AddBadSector(500));
  EXPECT_FALSE(layout_.AddBadSector(500));
  EXPECT_EQ(layout_.num_remapped_sectors(), 1u);
}

TEST_F(LayoutTest, ManyBadSectorsGetDistinctSpares) {
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> spares;
  for (uint64_t lba = 0; lba < 30; ++lba) {
    ASSERT_TRUE(layout_.AddBadSector(lba));
    const Chs s = layout_.ToChs(lba);
    spares.insert({s.cylinder, s.head, s.sector});
  }
  EXPECT_EQ(spares.size(), 30u);
}

TEST_F(LayoutTest, SpareSpaceExhausts) {
  // Zone 0 has one spare track of 40 sectors.
  for (uint64_t lba = 0; lba < 40; ++lba) {
    EXPECT_TRUE(layout_.AddBadSector(lba));
  }
  EXPECT_FALSE(layout_.AddBadSector(40));
}

TEST(LayoutSt39133, RoundTripSampled) {
  const DiskGeometry geo = MakeSt39133Geometry();
  DiskLayout layout(&geo);
  const uint64_t n = layout.num_data_sectors();
  EXPECT_GT(n, 17'000'000u);
  for (uint64_t lba = 0; lba < n; lba += 9973) {
    EXPECT_EQ(layout.ToLba(layout.ToChs(lba)), lba);
  }
  EXPECT_EQ(layout.ToLba(layout.ToChs(n - 1)), n - 1);
}

TEST(LayoutSt39133, ZoneBoundariesFallOnTrackBoundaries) {
  const DiskGeometry geo = MakeSt39133Geometry();
  DiskLayout layout(&geo);
  // Walk each zone transition: the sector before has sector == spt-1.
  uint64_t lba = 0;
  uint32_t prev_spt = geo.zones[0].sectors_per_track;
  for (uint64_t i = 0; i < layout.num_data_sectors(); i += 1) {
    const Chs chs = layout.ToChs(i);
    const uint32_t spt = geo.SectorsPerTrack(chs.cylinder);
    if (spt != prev_spt) {
      EXPECT_EQ(chs.sector, 0u);
      prev_spt = spt;
      lba = i;
    }
    // Skip ahead within the track for speed.
    i += spt - chs.sector - 1;
  }
  EXPECT_GT(lba, 0u);
}

}  // namespace
}  // namespace mimdraid
