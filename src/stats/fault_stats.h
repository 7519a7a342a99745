// Fault / recovery counters exported by the array controllers.
//
// One struct shared by ArrayController and EcController so chaos tests
// and CI artifacts can reconcile what the FaultInjector injected against what
// the recovery machinery did about it: every fault must end up retried,
// failed-over, reconstructed, repaired, or surfaced as kUnrecoverable —
// never silently dropped (the InvariantAuditor enforces the same rule
// per-operation at runtime).
#ifndef MIMDRAID_SRC_STATS_FAULT_STATS_H_
#define MIMDRAID_SRC_STATS_FAULT_STATS_H_

#include <cstdint>
#include <string>

namespace mimdraid {

struct FaultRecoveryStats {
  // Fault classes observed at the controller (per completed disk sub-op).
  uint64_t media_errors_seen = 0;
  uint64_t timeouts_seen = 0;
  uint64_t disk_failed_seen = 0;

  // Recovery actions.
  uint64_t retries_issued = 0;        // same target, after backoff
  uint64_t failovers = 0;             // alternate replica / mirror disk
  uint64_t reconstructions = 0;       // RAID-5 peer reconstruction
  uint64_t repairs_queued = 0;        // bad replica rewritten from a good one
  uint64_t unrecoverable_completions = 0;  // redundancy exhausted, surfaced

  // Automatic failure handling.
  uint64_t auto_disk_failures = 0;    // error threshold tripped
  uint64_t spares_promoted = 0;
  // Distinct pooled spares found incompatible with a failed slot at
  // promotion time (too small for the used span, or geometry mismatch).
  // Each spare counts at most once however many later promotion attempts
  // re-skip it; it stays pooled for slots it does fit.
  uint64_t spare_rejected = 0;
  uint64_t spare_rebuilds_completed = 0;
  uint64_t propagations_abandoned = 0;  // delayed write given up (disk dead)
  uint64_t rebuild_fragments_lost = 0;

  // Background scrubbing.
  uint64_t scrub_reads = 0;
  uint64_t scrub_repairs = 0;
  uint64_t scrub_sweeps_completed = 0;
  // Sectors of media actually verified by completed scrub reads (cumulative
  // over every sweep; a mirror sweep reads every live replica, so this can
  // exceed the logical dataset per sweep).
  uint64_t scrub_sectors_read = 0;
  // Coverage of the most recently *completed* sweep: sectors the sweep
  // issued over the sectors a fully-live array would have issued. 1.0 on a
  // healthy array; failed slots (replicas skipped) pull it below 1.0. Zero
  // until the first sweep completes.
  double scrub_last_sweep_coverage = 0.0;

  uint64_t TotalFaultsSeen() const {
    return media_errors_seen + timeouts_seen + disk_failed_seen;
  }

  // Multi-line human-readable summary (CI job artifact format).
  std::string Summary() const;
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_STATS_FAULT_STATS_H_
