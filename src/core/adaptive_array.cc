#include "src/core/adaptive_array.h"

#include <utility>

#include "src/util/check.h"

namespace mimdraid {
namespace {

// Copy bandwidth available for a re-layout.
constexpr double kMigrationMbPerS = 20.0;
// Reconfigurations whose migration would take longer than this are refused.
constexpr double kMaxMigrationSeconds = 24 * 3600.0;

}  // namespace

AdaptiveArray::AdaptiveArray(const AdaptiveArrayOptions& options)
    : options_(options),
      array_(std::make_unique<MimdRaid>(options.base)),
      monitor_(options.base.dataset_sectors, options.monitor_window),
      advisor_(ModelParamsForDataset(array_->disk(0).geometry(),
                                     options.base.profile,
                                     options.base.dataset_sectors),
               options.advisor),
      disk_params_(ModelParamsForDataset(array_->disk(0).geometry(),
                                         options.base.profile,
                                         options.base.dataset_sectors)) {}

SubmitFn AdaptiveArray::Submitter() {
  return [this](DiskOp op, uint64_t lba, uint32_t sectors, IoDoneFn done) {
    monitor_.OnSubmit(op, lba, sectors, array_->sim().Now());
    array_->controller().Submit(
        op, lba, sectors,
        [this, done = std::move(done)](const IoResult& r) {
          monitor_.OnComplete(array_->sim().Now());
          done(r);
        });
  };
}

Advice AdaptiveArray::Adapt() {
  const int disks = static_cast<int>(array_->num_disks());
  // Rough service-time scale for the utilization estimate: the model's
  // prediction for the current shape plus overheads.
  const WorkloadProfile rough = monitor_.Snapshot(disks, 5000.0);
  const Advice advice =
      advisor_.Evaluate(array_->options().aspect, rough);
  if (!advice.reconfigure) {
    return advice;
  }
  const MigrationEstimate est =
      EstimateMigration(advice, array_->options().dataset_sectors,
                        rough.io_per_s, kMigrationMbPerS);
  if (est.migration_seconds > kMaxMigrationSeconds) {
    Advice declined = advice;
    declined.reconfigure = false;
    return declined;
  }
  ReshapeEvent event;
  event.at_us = array_->sim().Now();
  event.from = advice.current;
  event.to = advice.recommended;
  event.predicted_gain = advice.predicted_gain;
  event.migration_seconds = est.migration_seconds;
  reshapes_.push_back(event);
  array_->Reshape(advice.recommended, UsFromSeconds(est.migration_seconds));
  return advice;
}

}  // namespace mimdraid
