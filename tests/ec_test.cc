// The general (k+m) erasure backend, bottom up: GF(2^8) field algebra and
// matrix inversion, the Cauchy codec's round-trip and any-k-subset
// decodability (the property the controller's availability-driven decode
// sets rely on), the rotated layout's geometry, and the controller's
// distinctive behaviors over the DriveSet engine — degraded reads under any
// m concurrent failures, multi-slot rebuild through queued spare promotions,
// and the per-request RMW-vs-reconstruct write-plan argmin. The k+1 cases
// pin RAID-5: ArrayBackendKind::kRaid5 is this controller with m = 1, and
// its access counts are the classic RAID-5 ones. The byte-level
// codec tests are the data-correctness anchor for the simulator paths (the
// sim moves no user bytes; it moves the codec's plans).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/mimd_raid.h"
#include "src/obs/stats_registry.h"
#include "src/obs/trace_collector.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

constexpr uint64_t kStepBudget = 30'000'000;

// ---------------------------------------------------------------------------
// GF(2^8) algebra.
// ---------------------------------------------------------------------------

TEST(Gf256Test, FieldAlgebraHolds) {
  // Multiplicative identities and inverses over the whole field.
  for (uint32_t a = 1; a < 256; ++a) {
    const uint8_t x = static_cast<uint8_t>(a);
    EXPECT_EQ(gf256::Mul(x, 1), x);
    EXPECT_EQ(gf256::Mul(x, gf256::Inv(x)), 1) << "a=" << a;
    EXPECT_EQ(gf256::Div(x, x), 1);
    EXPECT_EQ(gf256::Mul(x, 0), 0);
  }
  // Commutativity, associativity, and distributivity on a pseudorandom
  // sample (exhaustive over triples would be 2^24 checks).
  Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const uint8_t a = static_cast<uint8_t>(rng.UniformU64(256));
    const uint8_t b = static_cast<uint8_t>(rng.UniformU64(256));
    const uint8_t c = static_cast<uint8_t>(rng.UniformU64(256));
    EXPECT_EQ(gf256::Mul(a, b), gf256::Mul(b, a));
    EXPECT_EQ(gf256::Mul(a, gf256::Mul(b, c)),
              gf256::Mul(gf256::Mul(a, b), c));
    EXPECT_EQ(gf256::Mul(a, gf256::Add(b, c)),
              gf256::Add(gf256::Mul(a, b), gf256::Mul(a, c)));
    if (b != 0) {
      EXPECT_EQ(gf256::Mul(gf256::Div(a, b), b), a);
    }
  }
}

TEST(Gf256Test, MatrixInvertRoundTripAndSingularDetection) {
  // A Cauchy-derived square matrix inverts, and M * M^-1 == I.
  const EcCodec codec(4, 3);
  GfMatrix square(4, 4);
  const uint32_t picked[] = {0, 2, 4, 6};  // mixed data/parity rows
  for (uint32_t r = 0; r < 4; ++r) {
    for (uint32_t c = 0; c < 4; ++c) {
      square.set(r, c, codec.encode_matrix().at(picked[r], c));
    }
  }
  GfMatrix inverse(4, 4);
  ASSERT_TRUE(square.Invert(&inverse));
  const GfMatrix product = square.Mul(inverse);
  const GfMatrix identity = GfMatrix::Identity(4);
  for (uint32_t r = 0; r < 4; ++r) {
    for (uint32_t c = 0; c < 4; ++c) {
      EXPECT_EQ(product.at(r, c), identity.at(r, c)) << r << "," << c;
    }
  }
  // Duplicated rows are singular and must be reported, not mis-solved.
  GfMatrix singular = square;
  for (uint32_t c = 0; c < 4; ++c) {
    singular.set(3, c, singular.at(0, c));
  }
  GfMatrix unused(4, 4);
  EXPECT_FALSE(singular.Invert(&unused));
}

// ---------------------------------------------------------------------------
// Codec round-trip.
// ---------------------------------------------------------------------------

std::vector<std::vector<uint8_t>> RandomShards(uint32_t count, size_t len,
                                               Rng* rng) {
  std::vector<std::vector<uint8_t>> shards(count);
  for (auto& s : shards) {
    s.resize(len);
    for (auto& b : s) {
      b = static_cast<uint8_t>(rng->UniformU64(256));
    }
  }
  return shards;
}

TEST(EcCodecTest, EncodeReconstructRoundTripsEveryErasurePatternUpToM) {
  constexpr size_t kShardLen = 64;
  const std::pair<uint32_t, uint32_t> widths[] = {{2, 2}, {4, 2}, {3, 3},
                                                  {5, 1}};
  Rng rng(11);
  for (const auto& [k, m] : widths) {
    SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m));
    const EcCodec codec(k, m);
    const uint32_t n = k + m;
    const std::vector<std::vector<uint8_t>> data =
        RandomShards(k, kShardLen, &rng);
    std::vector<std::vector<uint8_t>> parity;
    codec.Encode(data, &parity);
    ASSERT_EQ(parity.size(), m);

    std::vector<std::vector<uint8_t>> whole = data;
    whole.insert(whole.end(), parity.begin(), parity.end());

    // Every erasure pattern of 1..m shards, data and parity in any mix,
    // must reconstruct the stripe exactly.
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      const int erased = __builtin_popcount(mask);
      if (erased == 0 || erased > static_cast<int>(m)) {
        continue;
      }
      std::vector<std::vector<uint8_t>> shards = whole;
      std::vector<bool> present(n, true);
      for (uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          shards[i].clear();
          present[i] = false;
        }
      }
      ASSERT_TRUE(codec.Reconstruct(&shards, present)) << "mask=" << mask;
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(shards[i], whole[i]) << "mask=" << mask << " shard=" << i;
      }
    }
  }
}

TEST(EcCodecTest, EveryKSubsetOfColumnsDecodes) {
  // The Cauchy guarantee the controller's decode-set selection leans on:
  // *any* k columns suffice, so availability alone picks them.
  const std::pair<uint32_t, uint32_t> widths[] = {{4, 2}, {3, 3}, {2, 2}};
  for (const auto& [k, m] : widths) {
    const EcCodec codec(k, m);
    const uint32_t n = k + m;
    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (__builtin_popcount(mask) != static_cast<int>(k)) {
        continue;
      }
      std::vector<uint32_t> cols;
      for (uint32_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          cols.push_back(i);
        }
      }
      EXPECT_TRUE(codec.CanDecodeFrom(cols))
          << "k=" << k << " m=" << m << " mask=" << mask;
    }
  }
}

TEST(EcCodecTest, ReconstructRefusesBeyondMErasures) {
  const EcCodec codec(4, 2);
  Rng rng(13);
  std::vector<std::vector<uint8_t>> data = RandomShards(4, 32, &rng);
  std::vector<std::vector<uint8_t>> parity;
  codec.Encode(data, &parity);
  std::vector<std::vector<uint8_t>> shards = data;
  shards.insert(shards.end(), parity.begin(), parity.end());
  std::vector<bool> present(6, true);
  for (uint32_t i = 0; i < 3; ++i) {  // m+1 = 3 losses: the stripe is gone
    shards[i].clear();
    present[i] = false;
  }
  EXPECT_FALSE(codec.Reconstruct(&shards, present));
}

// ---------------------------------------------------------------------------
// Rotated layout geometry.
// ---------------------------------------------------------------------------

TEST(EcLayoutTest, RotationInverseAndMapGeometry) {
  const EcLayout layout(/*num_disks=*/6, /*data_shards=*/4,
                        /*stripe_unit_sectors=*/16, /*per_disk_sectors=*/320);
  EXPECT_EQ(layout.parity_shards(), 2u);
  EXPECT_EQ(layout.num_rows(), 20u);
  EXPECT_EQ(layout.data_capacity_sectors(), 20u * 4u * 16u);

  for (uint32_t row = 0; row < layout.num_rows(); ++row) {
    // Every disk plays exactly one position per row, and the inverse map
    // agrees.
    std::vector<bool> seen(6, false);
    for (uint32_t pos = 0; pos < 6; ++pos) {
      const uint32_t disk = layout.DiskOfPosition(row, pos);
      EXPECT_FALSE(seen[disk]);
      seen[disk] = true;
      EXPECT_EQ(layout.PositionOfDisk(row, disk), pos);
    }
    // The pattern rotates one disk per row.
    EXPECT_EQ(layout.DataDiskOf(row, 0), row % 6);
  }

  // Map splits on unit boundaries, lands each unit on its shard's disk at
  // the row's offset, and covers the request exactly.
  const std::vector<EcFragment> frags = layout.Map(60, 16);
  ASSERT_EQ(frags.size(), 2u);
  uint64_t covered = 0;
  for (const EcFragment& f : frags) {
    covered += f.sectors;
    EXPECT_EQ(f.data_disk, layout.DataDiskOf(f.row, f.shard_index));
    const uint64_t unit_index = f.logical_lba / 16;
    EXPECT_EQ(f.row, unit_index / 4);
    EXPECT_EQ(f.shard_index, unit_index % 4);
    EXPECT_EQ(f.disk_lba,
              static_cast<uint64_t>(f.row) * 16 + f.logical_lba % 16);
  }
  EXPECT_EQ(covered, 16u);
}

// RAID-5 is the k+1 EcLayout: one parity shard per row, N-1 data shards.

TEST(Raid5Layout, CapacityIsNMinusOneDisks) {
  const EcLayout layout(/*num_disks=*/5, /*data_shards=*/4,
                        /*stripe_unit_sectors=*/16, /*per_disk_sectors=*/1600);
  EXPECT_EQ(layout.num_rows(), 100u);
  EXPECT_EQ(layout.data_capacity_sectors(), 100ull * 4 * 16);
}

TEST(Raid5Layout, DataDisksSkipParity) {
  const EcLayout layout(/*num_disks=*/4, /*data_shards=*/3,
                        /*stripe_unit_sectors=*/16, /*per_disk_sectors=*/160);
  for (uint32_t row = 0; row < 8; ++row) {
    const uint32_t parity = layout.ParityDiskOf(row, 0);
    std::set<uint32_t> data;
    for (uint32_t i = 0; i < 3; ++i) {
      const uint32_t d = layout.DataDiskOf(row, i);
      EXPECT_NE(d, parity);
      data.insert(d);
    }
    EXPECT_EQ(data.size(), 3u);
  }
}

TEST(Raid5Layout, MapPartitionsRequests) {
  const EcLayout layout(/*num_disks=*/4, /*data_shards=*/3,
                        /*stripe_unit_sectors=*/16, /*per_disk_sectors=*/160);
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(60));
    const uint64_t lba =
        rng.UniformU64(layout.data_capacity_sectors() - sectors);
    uint64_t cur = lba;
    for (const EcFragment& f : layout.Map(lba, sectors)) {
      EXPECT_EQ(f.logical_lba, cur);
      EXPECT_NE(f.data_disk, layout.ParityDiskOf(f.row, 0));
      EXPECT_LE(f.sectors, 16u);
      cur += f.sectors;
    }
    EXPECT_EQ(cur, lba + sectors);
  }
}

TEST(Raid5Layout, DistinctLogicalSectorsDistinctPhysical) {
  const EcLayout layout(/*num_disks=*/4, /*data_shards=*/3,
                        /*stripe_unit_sectors=*/16, /*per_disk_sectors=*/160);
  std::set<std::pair<uint32_t, uint64_t>> owned;
  for (uint64_t lba = 0; lba < layout.data_capacity_sectors(); ++lba) {
    const std::vector<EcFragment> frags = layout.Map(lba, 1);
    ASSERT_EQ(frags.size(), 1u);
    EXPECT_TRUE(owned.insert({frags[0].data_disk, frags[0].disk_lba}).second);
  }
}

// ---------------------------------------------------------------------------
// Controller behaviors over the engine.
// ---------------------------------------------------------------------------

struct EcRig {
  uint32_t disks = 6;
  uint32_t parity_shards = 2;
  uint64_t dataset = 2400;
  bool faults = false;
  uint32_t hot_spares = 0;
  InvariantAuditor* auditor = nullptr;
  TraceCollector* collector = nullptr;
  uint64_t seed = 5;
};

std::unique_ptr<MimdRaid> MakeEc(const EcRig& rig) {
  MimdRaidOptions options;
  options.backend = ArrayBackendKind::kErasure;
  options.aspect.ds = static_cast<int>(rig.disks);
  options.aspect.dr = 1;
  options.aspect.dm = 1;
  options.parity_shards = rig.parity_shards;
  options.scheduler = SchedulerKind::kSatf;
  options.dataset_sectors = rig.dataset;
  options.stripe_unit_sectors = 16;
  options.geometry = MakeTestGeometry();
  options.profile = MakeTestSeekProfile();
  options.seed = rig.seed;
  options.enable_fault_injection = rig.faults;
  options.fault.seed = rig.seed;
  options.hot_spares = rig.hot_spares;
  options.auditor = rig.auditor;
  options.collector = rig.collector;
  return std::make_unique<MimdRaid>(options);
}

// Submits `ops` fixed-stride reads across the dataset and requires every one
// to complete with `expected`.
void RunReadsExpecting(MimdRaid* array, int ops, IoStatus expected) {
  int done = 0;
  const uint64_t dataset = array->backend().dataset_sectors();
  for (int i = 0; i < ops; ++i) {
    const uint64_t lba = (static_cast<uint64_t>(i) * 37) % (dataset - 8);
    array->backend().Submit(DiskOp::kRead, lba, 8,
                            [&done, expected, i](const IoResult& r) {
                              ++done;
                              EXPECT_EQ(r.status, expected) << "read " << i;
                            });
  }
  uint64_t steps = 0;
  while (done < ops) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, kStepBudget) << "reads wedged";
  }
}

void Drain(MimdRaid* array) {
  array->backend().StopScrub();
  uint64_t steps = 0;
  while ((!array->backend().Idle() || array->backend().RebuildInProgress()) &&
         array->sim().Step()) {
    ASSERT_LT(++steps, kStepBudget) << "drain wedged";
  }
  EXPECT_TRUE(array->backend().Idle());
}

TEST(EcControllerTest, AnyTwoConcurrentFailuresServeDegradedReads) {
  // The acceptance shape: a 4+2 array, every one of the C(6,2) failure
  // pairs, reads stay kOk throughout (decoded through the surviving k
  // columns) and the auditor's fault conservation holds.
  for (uint32_t a = 0; a < 6; ++a) {
    for (uint32_t b = a + 1; b < 6; ++b) {
      SCOPED_TRACE("failed pair " + std::to_string(a) + "," +
                   std::to_string(b));
      InvariantAuditor auditor;
      EcRig rig;
      rig.auditor = &auditor;
      auto array = MakeEc(rig);
      ASSERT_TRUE(array->backend().FailDisk(SlotId(a)));
      ASSERT_TRUE(array->backend().FailDisk(SlotId(b)));
      RunReadsExpecting(array.get(), 60, IoStatus::kOk);
      Drain(array.get());
      EXPECT_GT(array->ec().stats().degraded_reads, 0u);
      array->backend().AuditQuiescent();
      EXPECT_EQ(auditor.violations(), 0u);
    }
  }
}

TEST(EcControllerTest, BeyondMConcurrentFailuresSurfaceUnrecoverable) {
  // m+1 = 3 of 6 columns gone: fewer than k survivors, so any read needing
  // a failed column must surface kUnrecoverable — terminally, without
  // wedging the engine. Reads whose data units sit entirely on live columns
  // still succeed as direct reads.
  InvariantAuditor auditor;
  EcRig rig;
  rig.auditor = &auditor;
  auto array = MakeEc(rig);
  for (uint32_t d = 0; d < 3; ++d) {
    ASSERT_TRUE(array->backend().FailDisk(SlotId(d)));
  }
  constexpr int kOps = 60;
  int done = 0;
  int unrecoverable = 0;
  const uint64_t dataset = array->backend().dataset_sectors();
  for (int i = 0; i < kOps; ++i) {
    const uint64_t lba = (static_cast<uint64_t>(i) * 37) % (dataset - 8);
    IoStatus expected = IoStatus::kOk;
    for (const EcFragment& f : array->ec_layout().Map(lba, 8)) {
      if (f.data_disk < 3) {
        expected = IoStatus::kUnrecoverable;
      }
    }
    unrecoverable += expected == IoStatus::kUnrecoverable ? 1 : 0;
    array->backend().Submit(DiskOp::kRead, lba, 8,
                            [&done, expected, i](const IoResult& r) {
                              ++done;
                              EXPECT_EQ(r.status, expected) << "read " << i;
                            });
  }
  ASSERT_GT(unrecoverable, 0) << "stride never crossed a failed column";
  uint64_t steps = 0;
  while (done < kOps) {
    ASSERT_TRUE(array->sim().Step()) << "simulator ran dry";
    ASSERT_LT(++steps, kStepBudget) << "reads wedged";
  }
  Drain(array.get());
  EXPECT_GT(array->backend().fault_stats().unrecoverable_completions, 0u);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST(EcControllerTest, TwoFailedSlotsRebuildThroughQueuedSparePromotions) {
  // Two fail-stops, two pooled spares: the first promotion starts the
  // rebuild, the second queues behind it, and both slots come back.
  InvariantAuditor auditor;
  EcRig rig;
  rig.auditor = &auditor;
  rig.faults = true;
  rig.hot_spares = 2;
  auto array = MakeEc(rig);
  EXPECT_EQ(array->backend().spares_available(), 2u);
  array->fault_injector()->FailStop(0);
  array->fault_injector()->FailStop(1);

  // Writes across the whole dataset touch both dead drives, so the engine
  // detects each fail-stop and promotes a spare into each slot.
  int done = 0;
  constexpr int kOps = 150;
  const uint64_t dataset = array->backend().dataset_sectors();
  Rng rng(17);
  for (int i = 0; i < kOps; ++i) {
    const uint64_t lba = rng.UniformU64(dataset - 8);
    array->backend().Submit(DiskOp::kWrite, lba, 8,
                            [&done, i](const IoResult& r) {
                              ++done;
                              EXPECT_EQ(r.status, IoStatus::kOk)
                                  << "write " << i;
                            });
  }
  uint64_t steps = 0;
  while (done < kOps) {
    ASSERT_TRUE(array->sim().Step());
    ASSERT_LT(++steps, kStepBudget) << "writes wedged";
  }
  Drain(array.get());

  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_EQ(fs.spares_promoted, 2u);
  EXPECT_EQ(fs.spare_rebuilds_completed, 2u);
  EXPECT_EQ(array->backend().spares_available(), 0u);
  EXPECT_FALSE(array->backend().IsFailed(SlotId(0)));
  EXPECT_FALSE(array->backend().IsFailed(SlotId(1)));
  EXPECT_GT(array->ec().stats().rebuilt_rows, 0u);

  // Fully restored: healthy reads, no decode path.
  const uint64_t degraded_before = array->ec().stats().degraded_reads;
  RunReadsExpecting(array.get(), 60, IoStatus::kOk);
  Drain(array.get());
  EXPECT_EQ(array->ec().stats().degraded_reads, degraded_before);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST(EcControllerTest, CommandRetriesTransientErrorThenDecodes) {
  // The controller's retry unit is the disk command: a transient media error
  // is retried in place, each try as a fresh queue entry, until the attempt
  // budget runs out; only then does the read decode from its peers.
  InvariantAuditor auditor;
  TraceCollector collector;
  EcRig rig;
  rig.auditor = &auditor;
  rig.collector = &collector;
  rig.faults = true;
  auto array = MakeEc(rig);
  const EcFragment frag = array->ec().layout().Map(0, 8).front();
  array->fault_injector()->InjectTransientErrors(frag.data_disk,
                                                 kMaxRecoveryAttempts);
  int calls = 0;
  IoResult seen;
  array->backend().Submit(DiskOp::kRead, 0, 8, [&](const IoResult& r) {
    ++calls;
    seen = r;
  });
  Drain(array.get());

  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen.status, IoStatus::kOk);
  const FaultRecoveryStats& fs = array->backend().fault_stats();
  EXPECT_EQ(fs.retries_issued, 2u);
  EXPECT_EQ(fs.media_errors_seen, 3u) << "one per attempt";
  EXPECT_FALSE(array->backend().IsFailed(SlotId(frag.data_disk)))
      << "transients never fail the slot";
  EXPECT_EQ(array->ec().stats().degraded_reads, 1u);
  int failed_reads = 0;
  for (const DiskOpRecord& op : collector.disk_ops()) {
    if (op.slot == frag.data_disk && !op.is_write) {
      EXPECT_EQ(op.lba, frag.disk_lba);
      EXPECT_EQ(op.status, IoStatus::kMediaError);
      ++failed_reads;
    }
  }
  EXPECT_EQ(failed_reads, 3);
  // A reused entry id or a fault resolved twice (or never) is a violation.
  EXPECT_EQ(auditor.open_faults(), 0u);
  array->backend().AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST(EcControllerTest, WritePlanPicksCheaperOfRmwAndReconstruct) {
  // Unit-aligned single-fragment writes so each op is one planned fragment.
  auto run_writes = [](MimdRaid* array, int ops) {
    int done = 0;
    const uint64_t dataset = array->backend().dataset_sectors();
    for (int i = 0; i < ops; ++i) {
      const uint64_t lba = (static_cast<uint64_t>(i) * 16) % (dataset - 16);
      array->backend().Submit(DiskOp::kWrite, lba - lba % 16, 8,
                              [&done](const IoResult& r) {
                                ++done;
                                EXPECT_EQ(r.status, IoStatus::kOk);
                              });
    }
    uint64_t steps = 0;
    while (done < ops) {
      ASSERT_TRUE(array->sim().Step());
      ASSERT_LT(++steps, kStepBudget);
    }
  };

  // 2+2: reconstruct-write reads the one other data column (k-1 = 1 read);
  // RMW would read old data + two old parities (3 reads). Argmin: RCW.
  {
    EcRig rig;
    rig.disks = 4;
    rig.parity_shards = 2;
    auto array = MakeEc(rig);
    run_writes(array.get(), 40);
    Drain(array.get());
    EXPECT_EQ(array->ec().stats().rmw_writes, 0u);
    EXPECT_EQ(array->ec().stats().reconstruct_writes, 40u);
  }
  // 5+1: RMW reads old data + one old parity (2 reads); reconstruct would
  // read the four other data columns. Argmin: RMW.
  {
    EcRig rig;
    rig.disks = 6;
    rig.parity_shards = 1;
    auto array = MakeEc(rig);
    run_writes(array.get(), 40);
    Drain(array.get());
    EXPECT_EQ(array->ec().stats().reconstruct_writes, 0u);
    EXPECT_EQ(array->ec().stats().rmw_writes, 40u);
  }
}

// ---------------------------------------------------------------------------
// RAID-5 (k+1): the single-parity access counts.
// ---------------------------------------------------------------------------

// A 3+1 group (RAID-5 over four drives) on the erasure path.
std::unique_ptr<MimdRaid> MakeRaid5(uint32_t disks = 4) {
  EcRig rig;
  rig.disks = disks;
  rig.parity_shards = 1;
  return MakeEc(rig);
}

uint64_t TotalDiskOps(MimdRaid* array) {
  uint64_t total = 0;
  for (size_t d = 0; d < array->num_disks(); ++d) {
    total += array->disk(d).ops_completed();
  }
  return total;
}

// Submits one op and pumps the simulator until it completes.
IoResult DoOne(MimdRaid* array, DiskOp op, uint64_t lba, uint32_t sectors) {
  IoResult out;
  bool done = false;
  array->backend().Submit(op, lba, sectors, [&](const IoResult& r) {
    out = r;
    done = true;
  });
  while (!done) {
    EXPECT_TRUE(array->sim().Step());
  }
  return out;
}

TEST(EcRaid5Test, ReadTouchesOnlyDataDisk) {
  auto array = MakeRaid5();
  EXPECT_EQ(DoOne(array.get(), DiskOp::kRead, 0, 8).status, IoStatus::kOk);
  EXPECT_EQ(TotalDiskOps(array.get()), 1u);
  EXPECT_EQ(array->ec().op_stats().reads_completed, 1u);
}

TEST(EcRaid5Test, SmallWriteIsFourAccesses) {
  // Read old data + read old parity + write data + write parity, for a
  // partial unit and a full unit alike.
  for (const uint32_t sectors : {8u, 16u}) {
    SCOPED_TRACE("sectors " + std::to_string(sectors));
    auto array = MakeRaid5();
    EXPECT_EQ(DoOne(array.get(), DiskOp::kWrite, 0, sectors).status,
              IoStatus::kOk);
    Drain(array.get());
    EXPECT_EQ(TotalDiskOps(array.get()), 4u);
    EXPECT_EQ(array->ec().stats().rmw_writes, 1u);
    EXPECT_EQ(array->ec().stats().reconstruct_writes, 0u);
  }
}

TEST(EcRaid5Test, SmallWriteSlowerThanRead) {
  auto writes = MakeRaid5();
  const SimTime write_done =
      DoOne(writes.get(), DiskOp::kWrite, 160, 8).completion_us;
  auto reads = MakeRaid5();
  const SimTime read_done =
      DoOne(reads.get(), DiskOp::kRead, 160, 8).completion_us;
  // The RMW write costs roughly a full extra rotation beyond a read.
  EXPECT_GT(write_done, read_done + SimDuration(3000));
}

TEST(EcRaid5Test, DegradedReadFansOutToPeers) {
  auto array = MakeRaid5();
  const EcFragment frag = array->ec_layout().Map(0, 8)[0];
  ASSERT_TRUE(array->backend().FailDisk(SlotId(frag.data_disk)));
  EXPECT_EQ(DoOne(array.get(), DiskOp::kRead, 0, 8).status, IoStatus::kOk);
  EXPECT_EQ(array->ec().stats().degraded_reads, 1u);
  EXPECT_EQ(TotalDiskOps(array.get()), 3u);  // the N-1 surviving members
}

TEST(EcRaid5Test, DegradedWriteToLostParityJustWritesData) {
  auto array = MakeRaid5();
  const EcFragment frag = array->ec_layout().Map(0, 8)[0];
  ASSERT_TRUE(array->backend().FailDisk(
      SlotId(array->ec_layout().ParityDiskOf(frag.row, 0))));
  EXPECT_EQ(DoOne(array.get(), DiskOp::kWrite, 0, 8).status, IoStatus::kOk);
  Drain(array.get());
  EXPECT_EQ(array->ec().stats().degraded_writes, 1u);
  EXPECT_EQ(TotalDiskOps(array.get()), 1u);
}

TEST(EcRaid5Test, DegradedWriteToLostDataReconstructs) {
  auto array = MakeRaid5();
  const EcFragment frag = array->ec_layout().Map(0, 8)[0];
  ASSERT_TRUE(array->backend().FailDisk(SlotId(frag.data_disk)));
  EXPECT_EQ(DoOne(array.get(), DiskOp::kWrite, 0, 8).status, IoStatus::kOk);
  Drain(array.get());
  EXPECT_EQ(array->ec().stats().degraded_writes, 1u);
  EXPECT_EQ(array->ec().stats().reconstruct_writes, 1u);
  // Reads the other k-1 = 2 data units, writes the parity.
  EXPECT_EQ(TotalDiskOps(array.get()), 3u);
}

TEST(EcRaid5Test, RebuildRestoresRedundancy) {
  auto array = MakeRaid5();
  ASSERT_TRUE(array->backend().FailDisk(SlotId(2)));
  bool rebuilt = false;
  IoResult result;
  array->backend().Rebuild(SlotId(2), [&](const IoResult& r) {
    result = r;
    rebuilt = true;
  });
  while (!rebuilt) {
    ASSERT_TRUE(array->sim().Step());
  }
  EXPECT_EQ(result.status, IoStatus::kOk);
  EXPECT_EQ(array->ec().stats().rebuilt_rows, array->ec_layout().num_rows());
  EXPECT_FALSE(array->backend().IsFailed(SlotId(2)));
  // Reads are direct again.
  EXPECT_EQ(DoOne(array.get(), DiskOp::kRead, 0, 8).status, IoStatus::kOk);
  EXPECT_EQ(array->ec().stats().degraded_reads, 0u);
}

TEST(EcRaid5Test, TrafficDuringRebuildStaysCorrect) {
  auto array = MakeRaid5();
  ASSERT_TRUE(array->backend().FailDisk(SlotId(1)));
  bool rebuilt = false;
  array->backend().Rebuild(SlotId(1),
                           [&](const IoResult&) { rebuilt = true; });
  // Reads across the array while the rebuild streams.
  Rng rng(9);
  int done = 0;
  constexpr int kOps = 60;
  const uint64_t dataset = array->backend().dataset_sectors();
  for (int i = 0; i < kOps; ++i) {
    array->backend().Submit(DiskOp::kRead, rng.UniformU64(dataset - 8), 8,
                            [&done](const IoResult& r) {
                              ++done;
                              EXPECT_EQ(r.status, IoStatus::kOk);
                            });
  }
  while (done < kOps || !rebuilt) {
    ASSERT_TRUE(array->sim().Step());
  }
  Drain(array.get());
  EXPECT_EQ(array->ec().op_stats().reads_completed,
            static_cast<uint64_t>(kOps));
}

TEST(EcRaid5Test, RandomMixAllCompletes) {
  auto array = MakeRaid5(/*disks=*/5);
  Rng rng(21);
  int done = 0;
  constexpr int kOps = 250;
  const uint64_t dataset = array->backend().dataset_sectors();
  for (int i = 0; i < kOps; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const DiskOp op = rng.Bernoulli(0.6) ? DiskOp::kRead : DiskOp::kWrite;
    array->backend().Submit(op, rng.UniformU64(dataset - sectors), sectors,
                            [&done](const IoResult& r) {
                              ++done;
                              EXPECT_EQ(r.status, IoStatus::kOk);
                            });
  }
  while (done < kOps) {
    ASSERT_TRUE(array->sim().Step());
  }
  Drain(array.get());
  EXPECT_EQ(array->ec().op_stats().reads_completed +
                array->ec().op_stats().writes_completed,
            static_cast<uint64_t>(kOps));
}

// ArrayBackendKind::kRaid5 is an alias: it must run exactly what kErasure
// with parity_shards = 1 runs — same rotation, same write plans (full-unit
// writes included), same rebuild — request for request.
TEST(EcRaid5Test, Raid5KindIsErasureWithOneParityShard) {
  struct Run {
    std::vector<int64_t> completions;
    std::map<std::string, double> stats;
  };
  const auto run = [](ArrayBackendKind kind, uint32_t parity_shards) {
    MimdRaidOptions options;
    options.backend = kind;
    options.aspect.ds = 5;
    options.aspect.dr = 1;
    options.aspect.dm = 1;
    options.parity_shards = parity_shards;
    options.scheduler = SchedulerKind::kSatf;
    options.dataset_sectors = 20'000;
    options.stripe_unit_sectors = 128;
    options.geometry = MakeTestGeometry();
    options.profile = MakeTestSeekProfile();
    options.seed = 23;
    MimdRaid array(options);

    constexpr int kOps = 300;
    const uint64_t dataset = array.backend().dataset_sectors();
    Run out;
    out.completions.assign(kOps, -1);
    int done = 0;
    bool rebuilt = false;
    Rng rng(29);
    for (int i = 0; i < kOps; ++i) {
      if (i == kOps / 2) {
        // Half-way: lose a drive and rebuild it under the remaining load.
        EXPECT_TRUE(array.backend().FailDisk(SlotId(2)));
        array.backend().Rebuild(
            SlotId(2), [&rebuilt](const IoResult&) { rebuilt = true; });
      }
      DiskOp op = DiskOp::kRead;
      uint64_t lba = 0;
      uint32_t sectors = 0;
      if (rng.Bernoulli(0.3)) {
        // Unit-aligned full-unit write: the case whose plan RAID-5 once
        // special-cased.
        op = DiskOp::kWrite;
        sectors = 128;
        lba = rng.UniformU64(dataset / 128) * 128;
      } else {
        op = rng.Bernoulli(0.5) ? DiskOp::kRead : DiskOp::kWrite;
        sectors = 1 + static_cast<uint32_t>(rng.UniformU64(64));
        lba = rng.UniformU64(dataset - sectors);
      }
      array.backend().Submit(op, lba, sectors,
                             [&out, &done, i](const IoResult& r) {
                               EXPECT_EQ(r.status, IoStatus::kOk);
                               out.completions[i] = r.completion_us.us();
                               ++done;
                             });
      if (rng.Bernoulli(0.3)) {
        array.sim().RunUntil(
            array.sim().Now() +
            SimDuration(static_cast<int64_t>(rng.UniformU64(10'000))));
      }
    }
    while (done < kOps || !rebuilt) {
      EXPECT_TRUE(array.sim().Step());
    }
    Drain(&array);
    StatsRegistry registry;
    array.backend().ExportStats(&registry);
    out.stats = registry.values();
    return out;
  };

  // kRaid5 ignores parity_shards; leave it at the kErasure default (2).
  const Run raid5 =
      run(ArrayBackendKind::kRaid5, MimdRaidOptions{}.parity_shards);
  const Run erasure = run(ArrayBackendKind::kErasure, 1);
  EXPECT_EQ(raid5.completions, erasure.completions);
  EXPECT_EQ(raid5.stats, erasure.stats);
  EXPECT_GT(raid5.stats.at("ec.rmw_writes"), 0.0);
  EXPECT_GT(raid5.stats.at("ec.rebuilt_rows"), 0.0);
}

TEST(EcControllerTest, ExportStatsPublishesStrategyCounters) {
  EcRig rig;
  auto array = MakeEc(rig);
  RunReadsExpecting(array.get(), 40, IoStatus::kOk);
  Drain(array.get());
  StatsRegistry registry;
  array->backend().ExportStats(&registry);
  EXPECT_GT(registry.Get("ec.reads_completed"), 0.0);
  EXPECT_TRUE(registry.Contains("ec.rmw_writes"));
  EXPECT_TRUE(registry.Contains("ec.reconstruct_writes"));
  EXPECT_TRUE(registry.Contains("ec.degraded_reads"));
  EXPECT_TRUE(registry.Contains("ec.rebuilt_rows"));
  EXPECT_TRUE(registry.Contains("fault.retries_issued"));
}

}  // namespace
}  // namespace mimdraid
