// I/O completion status threaded through the whole stack.
//
// The seed prototype carried only a completion time through its DoneFn
// callbacks, so no I/O could ever *fail* — latent sector errors, transient
// faults, and fail-slow disks (the partial-fault classes that dominate real
// array field failures) were unrepresentable. Every completion now carries an
// IoStatus; the recovery machinery (retry with backoff, read-failover,
// RAID-5 reconstruction, hot-spare promotion, scrubbing) lives in the
// controllers, and kUnrecoverable is the graceful terminal status when
// redundancy is exhausted — the array never crashes on a data-loss event.
#ifndef MIMDRAID_SRC_SIM_IO_STATUS_H_
#define MIMDRAID_SRC_SIM_IO_STATUS_H_

#include <cstdint>

#include "src/util/time.h"

namespace mimdraid {

// [[nodiscard]]: a dropped IoStatus is how data-loss events get silently
// swallowed — every producer's status must be inspected or explicitly voided.
enum class [[nodiscard]] IoStatus : uint8_t {
  kOk = 0,
  // Persistent media error (latent sector error): every read of the sector
  // fails until the data is rewritten, which lets the drive remap the sector
  // to spare space (DiskLayout::AddBadSector).
  kMediaError,
  // The drive hung; the host watchdog timer expired and aborted the command.
  // Transient by nature — a retry usually succeeds.
  kTimeout,
  // The drive is fail-stopped; the command was rejected by dead electronics.
  kDiskFailed,
  // Terminal: the controller exhausted every replica / reconstruction path.
  // Surfaced to the submitter instead of crashing (the array keeps serving
  // everything still intact).
  kUnrecoverable,
};

inline const char* IoStatusName(IoStatus s) {
  switch (s) {
    case IoStatus::kOk:
      return "ok";
    case IoStatus::kMediaError:
      return "media-error";
    case IoStatus::kTimeout:
      return "timeout";
    case IoStatus::kDiskFailed:
      return "disk-failed";
    case IoStatus::kUnrecoverable:
      return "unrecoverable";
  }
  return "?";
}

// What a logical I/O submitter gets back from a controller.
struct IoResult {
  IoStatus status = IoStatus::kOk;
  SimTime completion_us;
  // Recovery work the controller spent on this op (retries + failovers +
  // reconstructions). 0 on the fast path.
  uint32_t recovery_attempts = 0;
};

// Bounded retry with exponential backoff in simulated time. A sub-operation
// gets at most kMaxRecoveryAttempts tries; attempt k (0-based) that fails is
// retried after RecoveryBackoffUs(k) = 1 ms * 2^k.
inline constexpr uint32_t kMaxRecoveryAttempts = 3;

inline SimDuration RecoveryBackoffUs(uint32_t attempt) {
  double b = 1000.0;
  for (uint32_t i = 0; i < attempt; ++i) {
    b *= 2.0;
  }
  return SimDuration(static_cast<int64_t>(b));
}

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_SIM_IO_STATUS_H_
