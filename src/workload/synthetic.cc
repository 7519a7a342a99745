#include "src/workload/synthetic.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

constexpr uint32_t kHotBlockSectors = 64;  // granularity of the Zipf space
// Mean distance of a non-sequential near draw from the previous request.
constexpr double kNearJumpMeanSectors = 2048.0;

uint32_t SampleSize(const std::vector<std::pair<uint32_t, double>>& dist,
                    Rng& rng) {
  double total = 0.0;
  for (const auto& [size, w] : dist) {
    (void)size;
    total += w;
  }
  double u = rng.UniformDouble() * total;
  for (const auto& [size, w] : dist) {
    u -= w;
    if (u <= 0.0) {
      return size;
    }
  }
  return dist.back().first;
}

// Fixed-capacity ring push (access-history bookkeeping).
void Remember(std::vector<uint64_t>& ring, size_t& next, uint64_t lba) {
  constexpr size_t kCapacity = 65536;
  if (ring.size() < kCapacity) {
    ring.push_back(lba);
    next = ring.size() % kCapacity;
  } else {
    ring[next] = lba;
    next = (next + 1) % kCapacity;
  }
}

uint64_t AlignClamp(double pos, uint32_t size, uint64_t dataset) {
  double p = std::max(pos, 0.0);
  uint64_t lba = static_cast<uint64_t>(p);
  lba -= lba % size;
  if (lba + size > dataset) {
    lba = dataset - size;
    lba -= lba % size;
  }
  return lba;
}

}  // namespace

Trace GenerateSyntheticTrace(const SyntheticTraceParams& params) {
  MIMDRAID_CHECK_GT(params.dataset_sectors, 0u);
  MIMDRAID_CHECK_GT(params.io_per_s, 0.0);
  MIMDRAID_CHECK_GE(params.target_locality, 1.0);
  Trace trace;
  trace.name = params.name;
  trace.dataset_sectors = params.dataset_sectors;

  Rng rng(params.seed);
  const uint64_t hot_blocks =
      std::max<uint64_t>(1, params.dataset_sectors / kHotBlockSectors);
  // The Zipf space is capped to bound CDF precomputation; hot draws map into
  // the full dataset by scaling.
  const uint64_t zipf_n = std::min<uint64_t>(hot_blocks, 1 << 20);
  ZipfSampler zipf(zipf_n, params.hot_theta);
  // A fixed random permutation-ish scatter so the hottest blocks are not all
  // adjacent at LBA 0 (multiplicative hashing into the block space).
  const auto scatter = [&](uint64_t rank) {
    return (rank * 0x9e3779b97f4a7c15ULL) % hot_blocks;
  };

  double fresh_prob = 1.0 / params.target_locality;
  const double mean_gap_us = 1e6 / params.io_per_s;
  const SimTime end_us = SimTime(UsFromSeconds(params.duration_s));
  const SimDuration burst_us = params.sync_burst_period_s > 0.0
                                   ? UsFromSeconds(params.sync_burst_period_s)
                                   : SimDuration(0);

  // Async writes (sync-daemon flushes) target recently dirtied data, so they
  // carry the locality of the foreground stream; the fresh probability of
  // foreground records compensates for the async share that never jumps.
  const double foreground_frac = 1.0 - params.async_write_frac;
  // Residual effects (sorted flush bursts, hot-spot clustering) shift the
  // realized locality; generate, measure, and adjust until it lands near the
  // target.
  for (int calibration = 0; calibration < 7; ++calibration) {
  trace.records.clear();
  Rng pass_rng(params.seed + static_cast<uint64_t>(calibration) * 0x9e37ULL);
  rng = pass_rng;
  const double foreground_fresh_prob =
      std::min(1.0, fresh_prob / std::max(foreground_frac, 1e-9));
  std::vector<uint64_t> recent;
  size_t recent_next = 0;
  std::vector<uint64_t> history;  // long access history for re-reference
  size_t history_next = 0;
  constexpr size_t kRecentWindow = 64;
  const auto remember = [&](uint64_t lba) {
    if (recent.size() < kRecentWindow) {
      recent.push_back(lba);
    } else {
      recent[recent_next] = lba;
      recent_next = (recent_next + 1) % kRecentWindow;
    }
  };

  double t = 0.0;
  uint64_t prev_lba = params.dataset_sectors / 2;
  uint64_t seq_cursor = prev_lba;
  while (true) {
    t += rng.Exponential(mean_gap_us);
    if (t >= static_cast<double>(end_us.us())) {
      break;
    }
    TraceRecord rec;
    rec.time_us = SimTime(static_cast<int64_t>(t));
    rec.sectors = SampleSize(params.size_dist, rng);

    // Operation mix first: async flushes have their own placement rule.
    const double u = rng.UniformDouble();
    if (u < params.read_frac) {
      rec.is_write = false;
    } else {
      rec.is_write = true;
      rec.is_async = u < params.read_frac + params.async_write_frac;
    }

    // Temporal re-reference: a read revisits recently touched data, with a
    // bias toward the most recent touches (what a cache would hold).
    if (!rec.is_write && !history.empty() &&
        rng.Bernoulli(params.reref_frac)) {
      const double recency = rng.UniformDouble();
      const size_t back = static_cast<size_t>(
          recency * recency * recency * static_cast<double>(history.size()));
      const size_t idx =
          (history_next + history.size() - 1 - back) % history.size();
      rec.lba = AlignClamp(static_cast<double>(history[idx]), rec.sectors,
                           params.dataset_sectors);
      prev_lba = rec.lba;
      remember(rec.lba);
      Remember(history, history_next, rec.lba);
      trace.records.push_back(rec);
      continue;
    }

    if (rec.is_async && !recent.empty()) {
      // Flush of recently dirtied data: pick a recently touched location.
      rec.lba = AlignClamp(
          static_cast<double>(recent[rng.UniformU64(recent.size())]),
          rec.sectors, params.dataset_sectors);
      if (burst_us > SimDuration(0)) {
        // Round up to the next flush tick (integer tick arithmetic).
        rec.time_us =
            SimTime((rec.time_us.us() / burst_us.us() + 1) * burst_us.us());
        if (rec.time_us >= end_us) {
          continue;
        }
      }
      trace.records.push_back(rec);
      continue;  // flushes do not move the foreground locality cursor
    }

    // Foreground location.
    if (rng.Bernoulli(foreground_fresh_prob)) {
      double pos;
      if (rng.Bernoulli(params.hot_frac)) {
        const uint64_t block = scatter(zipf.Sample(rng)) %
                               std::max<uint64_t>(hot_blocks, 1);
        pos = static_cast<double>(block * kHotBlockSectors);
      } else {
        pos = rng.UniformDouble() *
              static_cast<double>(params.dataset_sectors);
      }
      rec.lba = AlignClamp(pos, rec.sectors, params.dataset_sectors);
      seq_cursor = rec.lba + rec.sectors;
    } else if (rng.Bernoulli(params.sequential_frac)) {
      rec.lba = AlignClamp(static_cast<double>(seq_cursor), rec.sectors,
                           params.dataset_sectors);
      seq_cursor = rec.lba + rec.sectors;
    } else {
      const double jump = rng.Exponential(kNearJumpMeanSectors) *
                          (rng.Bernoulli(0.5) ? 1.0 : -1.0);
      rec.lba = AlignClamp(static_cast<double>(prev_lba) + jump, rec.sectors,
                           params.dataset_sectors);
      seq_cursor = rec.lba + rec.sectors;
    }
    prev_lba = rec.lba;
    remember(rec.lba);
    if (!rec.is_write || params.reref_includes_writes) {
      Remember(history, history_next, rec.lba);
    }
    trace.records.push_back(rec);
  }
  // Burst quantization can reorder records; restore time order. Records
  // sharing a flush tick (the async burst) are issued in ascending LBA order,
  // as a real sync daemon does.
  std::stable_sort(trace.records.begin(), trace.records.end(),
                   [](const TraceRecord& a, const TraceRecord& b) {
                     if (a.time_us != b.time_us) {
                       return a.time_us < b.time_us;
                     }
                     return a.lba < b.lba;
                   });
  const double measured = ComputeTraceStats(trace).seek_locality;
  if (std::abs(measured - params.target_locality) <
      0.12 * params.target_locality) {
    break;
  }
  // fresh_prob ~ 1/L: too little locality means too many fresh jumps.
  fresh_prob = std::clamp(fresh_prob * measured / params.target_locality,
                          1e-4, 1.0);
  }  // calibration loop
  return trace;
}

SyntheticTraceParams CelloBaseParams(double duration_s, uint64_t seed) {
  SyntheticTraceParams p;
  p.name = "cello-base";
  // 8.4 GB footprint (Table 3), essentially a full ST39133.
  p.dataset_sectors = 16'400'000;
  p.duration_s = duration_s;
  p.io_per_s = 2.84;
  p.read_frac = 0.552;
  p.async_write_frac = 0.189;
  p.target_locality = 4.14;
  // Moderate skew over a multi-GB hot region: gives the cache-size
  // sensitivity of a real file server (Fig. 11) without inflating the
  // read-after-write ratio beyond Table 3.
  p.hot_theta = 0.8;
  p.hot_frac = 0.5;
  p.sequential_frac = 0.6;
  p.reref_frac = 0.2;
  p.size_dist = {{8, 0.45}, {16, 0.35}, {2, 0.1}, {64, 0.1}};
  p.sync_burst_period_s = 30.0;
  p.seed = seed;
  return p;
}

SyntheticTraceParams CelloDisk6Params(double duration_s, uint64_t seed) {
  SyntheticTraceParams p;
  p.name = "cello-disk6";
  // 1.3 GB news spool: ~15% of a disk, very high locality.
  p.dataset_sectors = 2'540'000;
  p.duration_s = duration_s;
  p.io_per_s = 2.56;
  p.read_frac = 0.358;
  p.async_write_frac = 0.161;
  p.target_locality = 16.67;
  p.hot_theta = 0.9;
  p.hot_frac = 0.35;
  p.sequential_frac = 0.7;
  p.reref_frac = 0.06;
  p.size_dist = {{8, 0.5}, {16, 0.3}, {2, 0.2}};
  p.sync_burst_period_s = 30.0;
  p.seed = seed;
  return p;
}

SyntheticTraceParams TpccParams(double duration_s, uint64_t seed) {
  SyntheticTraceParams p;
  p.name = "tpcc";
  // 9.0 GB of database pages, nearly uniform access (L = 1.04), no async
  // writes, strong read-after-write reuse from hot tables.
  p.dataset_sectors = 17'578'000;
  p.duration_s = duration_s;
  p.io_per_s = 500.0;
  p.read_frac = 0.548;
  p.async_write_frac = 0.0;
  p.target_locality = 1.04;
  p.hot_theta = 0.95;
  p.hot_frac = 0.35;
  p.sequential_frac = 0.0;
  p.reref_frac = 0.2;
  p.reref_includes_writes = true;
  p.size_dist = {{4, 0.85}, {16, 0.15}};
  p.sync_burst_period_s = 0.0;
  p.seed = seed;
  return p;
}

}  // namespace mimdraid
