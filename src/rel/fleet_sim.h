// Fleet-lifetime reliability simulator: the MTTDL axis of the capacity /
// performance / reliability trade the paper's arrays sit on.
//
// The microsecond-scale Simulator (src/sim) resolves individual disk
// accesses; simulating years of array life at that resolution is hopeless
// (a single year is ~3.2e13 microseconds). This simulator fast-forwards:
// it models only the *reliability events* of an array's life — whole-disk
// failures drawn from a lifetime hazard, rebuild completions, latent-sector-
// error (LSE) arrivals, and scrub sweeps — on its own event queue keyed in
// double hours. A quiet simulated year costs O(reliability events), not
// O(disk accesses): with failure rates in the 1e-6/hour range, decades of
// fleet time resolve in microseconds of wall clock.
//
// Randomness comes from a private FaultInjector (the same per-slot-stream
// machinery the chaos suite trusts): every lifetime and LSE-gap draw uses
// the slot's own stream, so a trial is bit-reproducible per (seed, slot) and
// independent of event interleaving across slots. Rebuild durations draw
// from a separate dedicated stream.
//
// Loss model. The array tolerates `fault_tolerance` (= m) concurrent
// whole-disk failures:
//   * an (m+1)-th concurrent failure is a whole-array data loss;
//   * while exactly m disks are down (the critical window), rebuilding needs
//     every surviving disk readable end to end, so an outstanding LSE on a
//     survivor — whether it arrived earlier and was never scrubbed, or
//     arrives mid-window — is a sector-loss event.
// Scrubbing earns its keep against the second clause: a sweep clears the
// LSEs of the disks it covers, shrinking the population that can ambush a
// rebuild.
//
// Renewal semantics: after a whole-array loss the array is restored from
// backup — every slot restarts fresh (new lifetime draws, LSEs cleared).
// Loss cycles are therefore i.i.d., and total-hours / total-losses is the
// censoring-aware MLE of the MTTDL (src/stats/estimate.h). In exponential-
// lifetime + exponential-rebuild mode the process is exactly the Markov
// chain behind the closed-form MTTDL (src/rel/hazard.h), which is the
// analytic cross-check.
#ifndef MIMDRAID_SRC_REL_FLEET_SIM_H_
#define MIMDRAID_SRC_REL_FLEET_SIM_H_

#include <cstdint>
#include <queue>
#include <vector>

#include "src/sim/fault_injector.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace rel {

// When the scrubber visits the fleet. kUtilizationGated is the lifetime-scale
// image of the engine's idle-gated scrubber (DriveSet::ScrubTick): it
// stretches the nominal period by the fraction of time foreground load keeps
// the scrubber off the disks.
enum class ScrubPolicy {
  kOff,               // never scrub; LSEs persist until a rebuild rewrites them
  kFixedPeriod,       // all disks swept together every period
  kStaggered,         // per-disk sweeps, phase-offset by slot across the period
  kUtilizationGated,  // fixed-period, stretched to period / (1 - utilization)
};

// How long a rebuild occupies the critical window. kFixed uses the
// calibrated constant from src/rel/rebuild_calib.h; kExponential is the
// memoryless repair the closed-form MTTDL assumes (cross-check mode only).
enum class RebuildTimeModel { kFixed, kExponential };

struct FleetOptions {
  // Array shape: total disks in the redundancy group and how many concurrent
  // whole-disk failures it survives (mirrored pair: 2/1; n-disk RAID-5: n/1;
  // k+m erasure code: (k+m)/m).
  uint32_t disks = 2;
  uint32_t fault_tolerance = 1;
  // Lifetime hazard + LSE arrival rate (hazard must not be kNone).
  DiskLifetimeOptions lifetime;
  RebuildTimeModel rebuild_model = RebuildTimeModel::kFixed;
  // Mean (kExponential) or exact (kFixed) hours a failed slot takes to
  // return to service.
  double rebuild_hours = 8.0;
  ScrubPolicy scrub = ScrubPolicy::kOff;
  double scrub_period_hours = 336.0;  // two weeks, a common fleet default
  // Fraction of wall time foreground load denies the idle-gated scrubber
  // (kUtilizationGated only); 0 degenerates to kFixedPeriod.
  double utilization = 0.0;
  // Trial length in simulated hours; the trial always runs to the horizon
  // (losses renew the array rather than ending the trial).
  double horizon_hours = 10.0 * 8766.0;
  uint64_t seed = 1;
};

// Everything one trial observed. Counters are exact (not sampled).
struct FleetTrialResult {
  double observed_hours = 0.0;
  uint64_t data_loss_events = 0;    // whole-array losses (renewals)
  uint64_t sector_loss_events = 0;  // LSE caught inside a critical window
  uint64_t disk_failures = 0;
  uint64_t rebuilds_completed = 0;
  uint64_t lse_arrivals = 0;
  uint64_t lse_scrub_cleared = 0;  // LSEs removed by sweeps before they bit
  uint64_t scrub_sweeps = 0;       // sweep events processed
  // Live-disk fraction the most recent sweep covered (1.0 when the whole
  // group was up; < 1 while slots were down; 0 until the first sweep).
  double last_sweep_coverage = 0.0;
  // Total events popped from the queue: the O(reliability events) cost of
  // the trial, pinned by FleetSim.QuietYearCostsOnlyReliabilityEvents.
  uint64_t events_processed = 0;
};

class FleetSim {
 public:
  explicit FleetSim(const FleetOptions& options);

  FleetSim(const FleetSim&) = delete;
  FleetSim& operator=(const FleetSim&) = delete;

  // Runs one trial from a fresh array to the horizon. Call once.
  FleetTrialResult Run();

 private:
  enum class EventKind : uint8_t {
    kDiskFailure = 0,
    kRebuildDone = 1,
    kLseArrival = 2,
    kScrubSweep = 3,
  };

  struct Event {
    double at_hours = 0.0;
    EventKind kind = EventKind::kDiskFailure;
    uint32_t slot = 0;        // disk slot; kNoSlot for fleet-wide sweeps
    uint64_t generation = 0;  // validity token (see Slot::generation)
    uint64_t seq = 0;         // tie-break of last resort: insertion order
  };

  // Min-heap order with a total deterministic tie-break, so simultaneous
  // events resolve identically on every run: (time, kind, slot, seq).
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_hours != b.at_hours) return a.at_hours > b.at_hours;
      if (a.kind != b.kind) return a.kind > b.kind;
      if (a.slot != b.slot) return a.slot > b.slot;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    bool failed = false;
    uint64_t outstanding_lses = 0;
    // Bumped whenever the slot's disk is replaced (rebuild completion or
    // whole-array renewal); events scheduled against an older disk carry the
    // old generation and are dropped on pop.
    uint64_t generation = 0;
  };

  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;

  void Schedule(double at_hours, EventKind kind, uint32_t slot,
                uint64_t generation);
  // Arms the slot's next whole-disk failure and LSE arrival from its fresh
  // disk's hazard draws.
  void ArmSlot(uint32_t slot, double now_hours);
  void ScheduleNextSweep(double now_hours, uint32_t slot);
  double EffectiveScrubPeriod() const;
  double DrawRebuildHours();

  void OnDiskFailure(const Event& e);
  void OnRebuildDone(const Event& e);
  void OnLseArrival(const Event& e);
  void OnScrubSweep(const Event& e);
  // Restores the whole array from backup after a loss: every slot fresh.
  void RenewArray(double now_hours);
  // Clears one live slot's outstanding LSEs, crediting the scrubber.
  void SweepSlot(uint32_t slot);

  FleetOptions options_;
  FaultInjector injector_;
  Rng rebuild_rng_;
  std::vector<Slot> slots_;
  uint32_t failed_count_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventAfter> queue_;
  uint64_t next_seq_ = 0;
  FleetTrialResult result_;
  bool ran_ = false;
};

}  // namespace rel
}  // namespace mimdraid

#endif  // MIMDRAID_SRC_REL_FLEET_SIM_H_
