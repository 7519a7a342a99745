#include "src/sim/fault_injector.h"

#include <cmath>

#include "src/util/check.h"

namespace mimdraid {

FaultInjector::FaultInjector(const FaultInjectorOptions& options)
    : options_(options) {
  MIMDRAID_CHECK_GE(options.latent_error_prob, 0.0);
  if (options.lifetime.hazard == LifetimeHazard::kExponential) {
    MIMDRAID_CHECK_GT(options.lifetime.mttf_hours, 0.0);
  } else if (options.lifetime.hazard == LifetimeHazard::kWeibull) {
    MIMDRAID_CHECK_GT(options.lifetime.weibull_shape, 0.0);
    MIMDRAID_CHECK_GT(options.lifetime.weibull_scale_hours, 0.0);
  }
  MIMDRAID_CHECK_GE(options.lifetime.lse_rate_per_hour, 0.0);
  MIMDRAID_CHECK_GE(options.transient_error_prob, 0.0);
  MIMDRAID_CHECK_GE(options.timeout_prob, 0.0);
  MIMDRAID_CHECK_GT(options.watchdog_timeout_us, SimDuration(0));
}

FaultInjector::DiskFaultState& FaultInjector::StateFor(uint32_t disk) {
  auto it = disks_.find(disk);
  if (it == disks_.end()) {
    // A disk slot's stream is a deterministic function of (seed, slot), not
    // of first-access order, so per-disk fault sequences are stable across
    // workload changes.
    it = disks_.emplace(disk, DiskFaultState(options_.seed * 0x9E3779B97F4A7C15ull + disk + 1))
             .first;
  }
  return it->second;
}

const FaultInjector::DiskFaultState* FaultInjector::StateForOrNull(
    uint32_t disk) const {
  auto it = disks_.find(disk);
  return it == disks_.end() ? nullptr : &it->second;
}

void FaultInjector::InjectLatentError(uint32_t disk, uint64_t lba) {
  if (StateFor(disk).latent_lbas.insert(lba).second) {
    ++counters_.latent_errors_planted;
  }
}

void FaultInjector::InjectTransientErrors(uint32_t disk, uint32_t count) {
  StateFor(disk).pending_transients += count;
}

void FaultInjector::SetFailSlow(uint32_t disk, double service_multiplier) {
  MIMDRAID_CHECK_GE(service_multiplier, 1.0);
  StateFor(disk).service_multiplier = service_multiplier;
}

void FaultInjector::FailStop(uint32_t disk) {
  StateFor(disk).fail_stopped = true;
}

void FaultInjector::ReplaceDisk(uint32_t disk) {
  DiskFaultState& s = StateFor(disk);
  s.fail_stopped = false;
  s.service_multiplier = 1.0;
  s.pending_transients = 0;
  s.latent_lbas.clear();
}

bool FaultInjector::IsFailStopped(uint32_t disk) const {
  const DiskFaultState* s = StateForOrNull(disk);
  return s != nullptr && s->fail_stopped;
}

bool FaultInjector::HasLatentError(uint32_t disk, uint64_t lba) const {
  const DiskFaultState* s = StateForOrNull(disk);
  return s != nullptr && s->latent_lbas.contains(lba);
}

size_t FaultInjector::LatentErrorCount(uint32_t disk) const {
  const DiskFaultState* s = StateForOrNull(disk);
  return s == nullptr ? 0 : s->latent_lbas.size();
}

size_t FaultInjector::TotalLatentErrors() const {
  size_t total = 0;
  for (const auto& [disk, s] : disks_) {
    total += s.latent_lbas.size();
  }
  return total;
}

double FaultInjector::DrawLifetimeHours(uint32_t disk) {
  const DiskLifetimeOptions& lt = options_.lifetime;
  MIMDRAID_CHECK(lt.hazard != LifetimeHazard::kNone);
  DiskFaultState& s = StateFor(disk);
  ++counters_.lifetime_draws;
  if (lt.hazard == LifetimeHazard::kExponential) {
    return s.rng.Exponential(lt.mttf_hours);
  }
  // Weibull inverse CDF: T = c * (-ln(1 - U))^(1/s). -log1p(-u) keeps
  // precision for small u, and u < 1 guarantees a finite draw.
  const double u = s.rng.UniformDouble();
  return lt.weibull_scale_hours *
         std::pow(-std::log1p(-u), 1.0 / lt.weibull_shape);
}

double FaultInjector::DrawLseGapHours(uint32_t disk) {
  MIMDRAID_CHECK_GT(options_.lifetime.lse_rate_per_hour, 0.0);
  DiskFaultState& s = StateFor(disk);
  ++counters_.lse_gap_draws;
  return s.rng.Exponential(1.0 / options_.lifetime.lse_rate_per_hour);
}

FaultOutcome FaultInjector::OnAccess(uint32_t disk, bool is_write,
                                     uint64_t lba, uint32_t sectors) {
  DiskFaultState& s = StateFor(disk);
  FaultOutcome out;
  if (s.fail_stopped) {
    ++counters_.failstop_rejections;
    out.status = IoStatus::kDiskFailed;
    return out;
  }
  out.service_multiplier = s.service_multiplier;
  if (s.service_multiplier > 1.0) {
    ++counters_.slow_accesses;
  }
  // One-shot transients queued by the chaos harness fire first.
  if (s.pending_transients > 0) {
    --s.pending_transients;
    ++counters_.transient_errors;
    out.status = IoStatus::kMediaError;
    return out;
  }
  // The drive hangs; the host watchdog aborts the command.
  if (options_.timeout_prob > 0.0 && s.rng.Bernoulli(options_.timeout_prob)) {
    ++counters_.timeouts;
    out.status = IoStatus::kTimeout;
    return out;
  }
  if (options_.transient_error_prob > 0.0 &&
      s.rng.Bernoulli(options_.transient_error_prob)) {
    ++counters_.transient_errors;
    out.status = IoStatus::kMediaError;
    return out;
  }
  if (!is_write) {
    // A read over a latent-bad sector fails persistently.
    for (uint32_t i = 0; i < sectors; ++i) {
      if (s.latent_lbas.contains(lba + i)) {
        ++counters_.media_error_reads;
        out.status = IoStatus::kMediaError;
        return out;
      }
    }
    // Media decay: this very read discovers a fresh latent error.
    if (options_.latent_error_prob > 0.0 &&
        s.rng.Bernoulli(options_.latent_error_prob)) {
      s.latent_lbas.insert(lba);
      ++counters_.latent_errors_planted;
      ++counters_.media_error_reads;
      out.status = IoStatus::kMediaError;
      return out;
    }
  }
  return out;
}

std::vector<uint64_t> FaultInjector::LatentInRange(uint32_t disk, uint64_t lba,
                                                   uint32_t sectors) const {
  std::vector<uint64_t> bad;
  const DiskFaultState* s = StateForOrNull(disk);
  if (s == nullptr || s->latent_lbas.empty()) {
    return bad;
  }
  for (uint32_t i = 0; i < sectors; ++i) {
    if (s->latent_lbas.contains(lba + i)) {
      bad.push_back(lba + i);
    }
  }
  return bad;
}

void FaultInjector::OnWriteRepaired(uint32_t disk, uint64_t lba) {
  DiskFaultState& s = StateFor(disk);
  if (s.latent_lbas.erase(lba) > 0) {
    ++counters_.write_repairs;
  }
}

}  // namespace mimdraid
