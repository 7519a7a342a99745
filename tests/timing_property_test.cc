// Property tests for DiskTimingModel: invariants that must hold for every
// access on every geometry.
#include <gtest/gtest.h>

#include <tuple>

#include "src/disk/timing.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

enum class Geo { kTest, kSt39133 };

class TimingProperty : public ::testing::TestWithParam<std::tuple<Geo, int>> {
 protected:
  TimingProperty()
      : geo_(std::get<0>(GetParam()) == Geo::kTest ? MakeTestGeometry()
                                                   : MakeSt39133Geometry()),
        layout_(&geo_),
        profile_(MakeSt39133SeekProfile()),
        model_(&layout_, profile_, /*phase=*/777.0),
        rng_(static_cast<uint64_t>(std::get<1>(GetParam()))) {}

  HeadState RandomHead() {
    HeadState h;
    h.cylinder = static_cast<uint32_t>(rng_.UniformU64(geo_.num_cylinders));
    h.head = static_cast<uint32_t>(rng_.UniformU64(geo_.num_heads));
    return h;
  }

  DiskGeometry geo_;
  DiskLayout layout_;
  SeekProfile profile_;
  DiskTimingModel model_;
  Rng rng_;
};

TEST_P(TimingProperty, PartsAlwaysSumToTotal) {
  for (int i = 0; i < 400; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(128));
    const uint64_t lba =
        rng_.UniformU64(layout_.num_data_sectors() - sectors);
    const AccessPlan p = model_.Plan(RandomHead(), rng_.UniformDouble(0, 1e8),
                                     lba, sectors, rng_.Bernoulli(0.5));
    EXPECT_NEAR(p.total_us, p.seek_us + p.rotational_us + p.transfer_us, 1e-6);
    EXPECT_GE(p.seek_us, 0.0);
    EXPECT_GE(p.rotational_us, 0.0);
    EXPECT_GT(p.transfer_us, 0.0);
  }
}

TEST_P(TimingProperty, TransferIsSumOfPerSectorSlotTimes) {
  for (int i = 0; i < 200; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(64));
    const uint64_t lba =
        rng_.UniformU64(layout_.num_data_sectors() - sectors);
    const AccessPlan p = model_.Plan(RandomHead(), 0.0, lba, sectors, false);
    // Transfer time is exactly the sum of each sector's own slot time
    // (sectors in an inner zone take longer to pass under the head).
    double expected = 0.0;
    for (uint32_t s = 0; s < sectors; ++s) {
      expected += geo_.SlotTimeUs(layout_.ToChs(lba + s).cylinder);
    }
    EXPECT_NEAR(p.transfer_us, expected, 1e-6);
  }
}

TEST_P(TimingProperty, EndStateMatchesLastSector) {
  for (int i = 0; i < 200; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(256));
    const uint64_t lba =
        rng_.UniformU64(layout_.num_data_sectors() - sectors);
    const AccessPlan p = model_.Plan(RandomHead(), 0.0, lba, sectors, false);
    const Chs last = layout_.ToChs(lba + sectors - 1);
    EXPECT_EQ(p.end_state.cylinder, last.cylinder);
    EXPECT_EQ(p.end_state.head, last.head);
  }
}

TEST_P(TimingProperty, SingleSectorBoundedByMaxSeekPlusRotation) {
  const double bound = profile_.MaxSeekUs(geo_.num_cylinders) +
                       static_cast<double>(geo_.RotationUs().us()) +
                       geo_.SlotTimeUs(0) + 1.0;
  for (int i = 0; i < 400; ++i) {
    const uint64_t lba = rng_.UniformU64(layout_.num_data_sectors());
    const AccessPlan p = model_.Plan(RandomHead(), rng_.UniformDouble(0, 1e9),
                                     lba, 1, false);
    EXPECT_LE(p.total_us, bound);
  }
}

TEST_P(TimingProperty, SequentialFullTrackNeverLosesARotation) {
  // Reading an aligned full track, starting aligned with its first slot,
  // takes exactly one rotation of transfer plus sub-rotation positioning.
  for (int i = 0; i < 100; ++i) {
    const uint64_t lba = rng_.UniformU64(layout_.num_data_sectors());
    const Chs chs = layout_.ToChs(lba);
    const uint64_t track_start = lba - chs.sector;
    const uint32_t spt = geo_.SectorsPerTrack(chs.cylinder);
    if (track_start + spt > layout_.num_data_sectors()) {
      continue;
    }
    const HeadState at{chs.cylinder, chs.head};
    const AccessPlan p = model_.Plan(at, rng_.UniformDouble(0, 1e8),
                                     track_start, spt, false);
    const double rotation = static_cast<double>(geo_.RotationUs().us());
    EXPECT_NEAR(p.transfer_us, rotation, 1e-6);
    EXPECT_LT(p.rotational_us, rotation);
  }
}

TEST_P(TimingProperty, WriteNeverFasterThanReadFromSameState) {
  for (int i = 0; i < 200; ++i) {
    const uint64_t lba = rng_.UniformU64(layout_.num_data_sectors() - 8);
    const HeadState head = RandomHead();
    const double t = rng_.UniformDouble(0, 1e8);
    const AccessPlan r = model_.Plan(head, t, lba, 8, false);
    const AccessPlan w = model_.Plan(head, t, lba, 8, true);
    // The write's extra settle may be absorbed by rotational wait, but the
    // total can never be smaller by more than a full rotation's wrap.
    EXPECT_GE(w.seek_us, r.seek_us);
  }
}

// The scheduler-pruning lower bound must never exceed the full plan's
// total: a violation would let a scheduler skip a candidate that could have
// won the scan, silently changing dispatch order. Its seek-only term, which
// schedulers test first, must never exceed the full bound. Checked with and
// without bad-sector remaps (a remap relocates an LBA to zone spare space,
// possibly on another cylinder) and after a rotation re-estimate (which moves
// the per-slot transfer floor).
TEST_P(TimingProperty, LowerBoundsNeverExceedPlanTotal) {
  for (int round = 0; round < 3; ++round) {
    if (round == 1) {
      for (int i = 0; i < 100; ++i) {
        layout_.AddBadSector(rng_.UniformU64(layout_.num_data_sectors()));
      }
    } else if (round == 2) {
      model_.set_rotation_us(model_.rotation_us() * 1.0013);
      model_.set_spindle_phase_us(41.9);
    }
    for (int i = 0; i < 4000; ++i) {
      const HeadState head = RandomHead();
      const double start = rng_.UniformDouble(0, 1e9);
      const uint32_t sectors = 1 + static_cast<uint32_t>(rng_.UniformU64(64));
      const uint64_t lba =
          rng_.UniformU64(layout_.num_data_sectors() - sectors);
      const bool is_write = rng_.Bernoulli(0.5);
      const AccessPlan p = model_.Plan(head, start, lba, sectors, is_write);
      const AccessBound bound = model_.BoundFrom(head, start, 0.0);
      const SectorPos pos = layout_.PositionOf(lba);
      const double full = bound.Us(pos, sectors, is_write);
      ASSERT_LE(full, p.total_us)
          << "round=" << round << " lba=" << lba << " sectors=" << sectors
          << " start=" << start;
      ASSERT_LE(bound.Us(bound.SeekUs(pos, is_write), sectors), full)
          << "round=" << round << " lba=" << lba << " sectors=" << sectors;
    }
  }
}

TEST_P(TimingProperty, MinSlotTimeTracksRotationRefresh) {
  const double before = model_.MinSlotTimeUs();
  model_.set_rotation_us(model_.rotation_us() * 0.5);
  EXPECT_DOUBLE_EQ(model_.MinSlotTimeUs(), before * 0.5);
}

// A default bound has every term zero, so it bounds any access by 0 and a
// scheduler driven by it prunes nothing.
TEST(AccessBound, DefaultBoundIsZero) {
  const DiskGeometry geo = MakeSt39133Geometry();
  const DiskLayout layout(&geo);
  Rng rng(9);
  const AccessBound bound;
  for (int i = 0; i < 1000; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(64));
    const SectorPos pos =
        layout.PositionOf(rng.UniformU64(layout.num_data_sectors()));
    const bool is_write = rng.Bernoulli(0.5);
    ASSERT_EQ(bound.Us(pos, sectors, is_write), 0.0);
    ASSERT_EQ(bound.Us(bound.SeekUs(pos, is_write), sectors), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TimingProperty,
    ::testing::Values(std::tuple{Geo::kTest, 1}, std::tuple{Geo::kTest, 2},
                      std::tuple{Geo::kSt39133, 3},
                      std::tuple{Geo::kSt39133, 4}),
    [](const auto& suite_info) {
      return std::string(std::get<0>(suite_info.param) == Geo::kTest ? "Test"
                                                               : "St39133") +
             "_seed" + std::to_string(std::get<1>(suite_info.param));
    });

}  // namespace
}  // namespace mimdraid
