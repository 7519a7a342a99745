// Deterministic, seedable fault-injection subsystem.
//
// Disks consult the injector on every media access (SimDisk::Start). It
// models the partial-fault classes that dominate real array failures:
//
//   * latent sector errors — persistent per-LBA read failures, planted
//     explicitly or stochastically, surviving until the sector is rewritten
//     (the drive then remaps it to spare space via DiskLayout::AddBadSector);
//   * transient errors — one-shot media errors that succeed on retry;
//   * I/O timeouts — the drive hangs and the host watchdog aborts the
//     command after watchdog_timeout_us;
//   * fail-slow drives — a configurable service-time multiplier;
//   * fail-stop — dead electronics reject every command immediately.
//
// Beyond the per-access fault classes, the injector is also the randomness
// source for *lifetime-scale* reliability modeling (src/rel): whole-disk
// time-to-failure draws from a configurable hazard (constant-rate exponential
// or Weibull, whose shape parameter covers both infant-mortality and wear-out
// ends of the bathtub curve) and latent-sector-error interarrival draws from a
// Poisson process. Keeping those draws here — on the same per-slot streams the
// access-time faults use — makes a fleet-lifetime run reproducible per
// (seed, slot) with the exact machinery the chaos suite already trusts.
//
// Determinism: each disk slot gets its own RNG stream forked from the seed,
// so a run is bit-for-bit reproducible for a given (seed, workload) pair
// regardless of how faults interleave across disks. Replacing a drive
// (hot-spare promotion) resets the slot's fault state but not its stream:
// ReplaceDisk MUST NOT advance, rewind, or reseed the slot's RNG, so runs
// stay bit-reproducible across spare promotions (post-replacement draws are
// identical to what the slot would have drawn without the promotion; pinned
// by FaultInjector.ReplaceDiskPreservesSlotStreamPosition).
#ifndef MIMDRAID_SRC_SIM_FAULT_INJECTOR_H_
#define MIMDRAID_SRC_SIM_FAULT_INJECTOR_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/sim/io_status.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace mimdraid {

// Whole-disk lifetime hazard. kExponential is the constant-rate memoryless
// model every closed-form MTTDL expression assumes (the analytic cross-check
// mode); kWeibull generalizes it: shape < 1 gives a decreasing hazard (infant
// mortality), shape = 1 degenerates to exponential, shape > 1 an increasing
// hazard (wear-out) — the two non-flat regimes of the bathtub curve.
enum class LifetimeHazard {
  kNone,         // lifetime draws disabled (DrawLifetimeHours CHECKs)
  kExponential,  // rate 1/mttf_hours
  kWeibull,      // scale weibull_scale_hours, shape weibull_shape
};

// Lifetime-scale reliability knobs (consumed by src/rel's fleet simulator;
// inert for the per-access fault path).
struct DiskLifetimeOptions {
  LifetimeHazard hazard = LifetimeHazard::kNone;
  // Mean time to failure for the exponential hazard.
  double mttf_hours = 1.0e6;
  // Weibull parameters. With shape s and scale c the mean lifetime is
  // c * tgamma(1 + 1/s) (see rel::WeibullMeanHours).
  double weibull_shape = 1.0;
  double weibull_scale_hours = 1.0e6;
  // Poisson arrival rate of latent sector errors per disk-hour (0 disables;
  // DrawLseGapHours CHECKs). Field studies put this around 1e-4..1e-3 per
  // hour for nearline drives.
  double lse_rate_per_hour = 0.0;
};

struct FaultInjectorOptions {
  uint64_t seed = 1;
  // Lifetime/hazard model for whole-disk failures and LSE accumulation.
  DiskLifetimeOptions lifetime;
  // Per-access probability of planting a *new* persistent latent error at the
  // access's first LBA (reads only; the read that discovers it fails).
  double latent_error_prob = 0.0;
  // Per-access probability of a one-shot transient media error.
  double transient_error_prob = 0.0;
  // Per-access probability that the drive hangs until the watchdog fires.
  double timeout_prob = 0.0;
  // Host command watchdog: a hung command is aborted (and completes with
  // IoStatus::kTimeout) this long after dispatch.
  SimDuration watchdog_timeout_us = SimDuration(250'000);
};

// Extra service time a drive spends in internal retries before reporting a
// media error (a handful of revolutions of re-reads).
inline constexpr double kMediaRetryPenaltyUs = 25'000.0;

// Aggregate counters for everything the injector did (by fault class) and
// everything the drives repaired. Exposed so chaos tests and CI artifacts can
// reconcile injected faults against controller recovery stats.
struct FaultInjectorCounters {
  uint64_t latent_errors_planted = 0;
  uint64_t transient_errors = 0;
  uint64_t timeouts = 0;
  uint64_t media_error_reads = 0;   // reads failed by a live latent error
  uint64_t failstop_rejections = 0;
  uint64_t slow_accesses = 0;       // accesses stretched by a fail-slow drive
  uint64_t write_repairs = 0;       // latent errors cleared by a rewrite
  uint64_t lifetime_draws = 0;      // whole-disk time-to-failure samples
  uint64_t lse_gap_draws = 0;       // LSE interarrival samples
};

// Verdict for one media access.
struct FaultOutcome {
  IoStatus status = IoStatus::kOk;
  // Mechanical-time multiplier (> 1 on a fail-slow drive).
  double service_multiplier = 1.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultInjectorOptions& options);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  const FaultInjectorOptions& options() const { return options_; }
  const FaultInjectorCounters& counters() const { return counters_; }

  // --- Explicit injection (tests, chaos harness). ---
  void InjectLatentError(uint32_t disk, uint64_t lba);
  // The next `count` accesses to `disk` fail with a transient media error.
  void InjectTransientErrors(uint32_t disk, uint32_t count);
  void SetFailSlow(uint32_t disk, double service_multiplier);
  void FailStop(uint32_t disk);

  // Replacement drive in the slot (hot-spare promotion): clears fail-stop,
  // fail-slow, pending transients, and the latent-error map for the slot.
  // Contract: the slot's RNG stream position is preserved exactly — a draw
  // made after ReplaceDisk returns the same value the slot would have drawn
  // without it, so runs stay bit-reproducible across spare promotions
  // (FaultInjector.ReplaceDiskPreservesSlotStreamPosition).
  void ReplaceDisk(uint32_t disk);

  // --- Lifetime-scale draws (fleet reliability simulation, src/rel). ---
  // Samples a whole-disk time-to-failure from the configured hazard, using
  // `disk`'s private stream. CHECKs unless options.lifetime.hazard != kNone.
  double DrawLifetimeHours(uint32_t disk);
  // Samples the gap to the next latent-sector-error arrival (exponential with
  // mean 1/lse_rate_per_hour). CHECKs unless lse_rate_per_hour > 0.
  double DrawLseGapHours(uint32_t disk);

  // --- Queries. ---
  bool IsFailStopped(uint32_t disk) const;
  bool HasLatentError(uint32_t disk, uint64_t lba) const;
  size_t LatentErrorCount(uint32_t disk) const;
  size_t TotalLatentErrors() const;

  // --- Disk-side hooks (called by SimDisk). ---
  // Evaluates one media access. May plant new stochastic faults as a side
  // effect; the decision is drawn from the slot's private RNG stream.
  FaultOutcome OnAccess(uint32_t disk, bool is_write, uint64_t lba,
                        uint32_t sectors);
  // LBAs in [lba, lba+sectors) carrying a live latent error (for the write
  // reallocation path).
  std::vector<uint64_t> LatentInRange(uint32_t disk, uint64_t lba,
                                      uint32_t sectors) const;
  // A write landed on a latent-bad LBA and the drive reallocated the sector:
  // the media under the LBA is good again.
  void OnWriteRepaired(uint32_t disk, uint64_t lba);

 private:
  struct DiskFaultState {
    Rng rng;
    bool fail_stopped = false;
    double service_multiplier = 1.0;
    uint32_t pending_transients = 0;
    std::unordered_set<uint64_t> latent_lbas;

    explicit DiskFaultState(uint64_t seed) : rng(seed) {}
  };

  DiskFaultState& StateFor(uint32_t disk);
  const DiskFaultState* StateForOrNull(uint32_t disk) const;

  FaultInjectorOptions options_;
  FaultInjectorCounters counters_;
  std::unordered_map<uint32_t, DiskFaultState> disks_;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SIM_FAULT_INJECTOR_H_
