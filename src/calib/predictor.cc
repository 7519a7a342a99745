#include "src/calib/predictor.h"

#include <cmath>

#include "src/util/check.h"

namespace mimdraid {
namespace {

// Slack feedback constants (see SlackFeedbackOptions).
constexpr double kSlackTargetMissRate = 0.01;
constexpr double kSlackIncreaseFactor = 1.4;
constexpr double kSlackDecreaseUs = 25.0;

}  // namespace

double SpindlePhaseFromLattice(const DiskLayout& layout, uint64_t reference_lba,
                               double lattice_phase_us, double rotation_us) {
  const Chs ref = layout.ToChs(reference_lba);
  const uint32_t spt = layout.geometry().SectorsPerTrack(ref.cylinder);
  const double end_angle =
      static_cast<double>((layout.SlotOf(ref) + 1) % spt) / spt;
  return lattice_phase_us - end_angle * rotation_us;
}

double PredictorStats::DemeritUs() const {
  return predictions == 0
             ? 0.0
             : std::sqrt(squared_error_sum / static_cast<double>(predictions));
}

bool PredictorStats::Score(double actual_us, double predicted_us,
                           double rotation_us) {
  const double error = actual_us - predicted_us;
  ++predictions;
  access_time_us.Add(actual_us);
  squared_error_sum += error * error;
  const bool miss = error > rotation_us / 2.0;
  if (miss) {
    ++misses;
  } else {
    error_us.Add(error);
  }
  return miss;
}

HeadPositionPredictor::HeadPositionPredictor(
    const DiskLayout* layout, const SeekProfile& profile, double rotation_us,
    double lattice_phase_us, uint64_t reference_lba,
    const SlackFeedbackOptions& slack_options)
    : layout_(layout),
      estimator_(rotation_us),
      reference_lba_(reference_lba),
      slack_options_(slack_options),
      slack_us_(slack_options.initial_slack_us) {
  MIMDRAID_CHECK(layout != nullptr);
  timing_ = std::make_unique<DiskTimingModel>(
      layout_, profile,
      SpindlePhaseFromLattice(*layout_, reference_lba_, lattice_phase_us,
                              rotation_us),
      rotation_us);
  head_.cylinder = layout_->first_data_cylinder();
  head_.head = 0;
}

AccessPlan HeadPositionPredictor::Predict(SimTime now, BlockAddr lba,
                                          uint32_t sectors,
                                          bool is_write) const {
  return timing_->Plan(head_, static_cast<double>(now.us()), lba.value(),
                       sectors, is_write);
}

void HeadPositionPredictor::OnDispatch(SimTime now, BlockAddr lba,
                                       uint32_t sectors, bool is_write,
                                       double predicted_service_us) {
  (void)lba;
  (void)sectors;
  (void)is_write;
  MIMDRAID_CHECK(!pending_.has_value());
  pending_ = Pending{now, predicted_service_us};
}

void HeadPositionPredictor::OnCompletion(SimTime completion_us, BlockAddr lba,
                                         uint32_t sectors) {
  MIMDRAID_CHECK(pending_.has_value());
  const Pending p = *pending_;
  pending_.reset();

  // Arm position after the access.
  const Chs last = layout_->ToChs(lba.value() + sectors - 1);
  head_.cylinder = last.cylinder;
  head_.head = last.head;

  const bool miss = stats_.Score(
      static_cast<double>((completion_us - p.dispatch_us).us()),
      p.predicted_service_us, timing_->rotation_us());

  // Slack feedback: keep the on-target rate above (1 - kSlackTargetMissRate).
  ++window_predictions_;
  if (miss) {
    ++window_misses_;
  }
  if (window_predictions_ >= static_cast<uint64_t>(slack_options_.window)) {
    const double rate = static_cast<double>(window_misses_) /
                        static_cast<double>(window_predictions_);
    if (rate > kSlackTargetMissRate) {
      slack_us_ = std::min(slack_us_ * kSlackIncreaseFactor,
                           slack_options_.max_slack_us);
    } else if (rate < kSlackTargetMissRate / 4.0) {
      slack_us_ = std::max(slack_us_ - kSlackDecreaseUs,
                           slack_options_.min_slack_us);
    }
    window_predictions_ = 0;
    window_misses_ = 0;
  }
}

void HeadPositionPredictor::AddReferenceObservation(SimTime completion_us) {
  estimator_.AddObservation(completion_us);
  estimator_.TrimTo(64);
  if (estimator_.Ready()) {
    RefreshModelFromEstimator();
  }
}

void HeadPositionPredictor::RefreshModelFromEstimator() {
  timing_->set_rotation_us(estimator_.rotation_us());
  timing_->set_spindle_phase_us(
      SpindlePhaseFromLattice(*layout_, reference_lba_, estimator_.phase_us(),
                              estimator_.rotation_us()));
}

OraclePredictor::OraclePredictor(const SimDisk* disk, double slack_us)
    : disk_(disk), slack_us_(slack_us) {
  MIMDRAID_CHECK(disk != nullptr);
  // With perfect phase knowledge the only systematic offsets are the mean
  // overheads; folding them in makes predictions comparable to observed
  // completion timestamps (and crucial: the mechanical access only begins
  // after the pre-access overhead, which shifts every rotational wait).
  // Peeking at the noise model is exactly the point of the oracle.
  overhead_mean_us_ =
      disk->noise().overhead_mean_us + disk->noise().post_overhead_mean_us;
}

AccessPlan OraclePredictor::Predict(SimTime now, BlockAddr lba,
                                    uint32_t sectors, bool is_write) const {
  const double pre = disk_->noise().overhead_mean_us;
  AccessPlan plan = disk_->DebugTimingModel().Plan(
      disk_->DebugHeadState(), static_cast<double>(now.us()) + pre,
      lba.value(), sectors, is_write);
  plan.total_us += overhead_mean_us_;
  return plan;
}

double OraclePredictor::RotationUs() const {
  return disk_->DebugTimingModel().rotation_us();
}

AccessBound OraclePredictor::PickBound(SimTime now) const {
  const double pre = disk_->noise().overhead_mean_us;
  return disk_->DebugTimingModel().BoundFrom(
      disk_->DebugHeadState(), static_cast<double>(now.us()) + pre,
      overhead_mean_us_);
}

void OraclePredictor::OnDispatch(SimTime now, BlockAddr lba, uint32_t sectors,
                                 bool is_write, double predicted_service_us) {
  (void)lba;
  (void)sectors;
  (void)is_write;
  MIMDRAID_CHECK(!pending_.has_value());
  pending_ = {now, predicted_service_us};
}

void OraclePredictor::OnCompletion(SimTime completion_us, BlockAddr lba,
                                   uint32_t sectors) {
  (void)lba;
  (void)sectors;
  MIMDRAID_CHECK(pending_.has_value());
  const auto [dispatch, predicted] = *pending_;
  pending_.reset();
  stats_.Score(static_cast<double>((completion_us - dispatch).us()), predicted,
               RotationUs());
}

}  // namespace mimdraid
