// Interface between position-sensitive schedulers and the head-position
// prediction machinery.
//
// Schedulers (SATF, RLOOK, RSATF, and the mirror read heuristic) rank
// candidate physical accesses by predicted positioning time. The production
// implementation is calib::HeadPositionPredictor, which works purely from
// observed completion timestamps (Section 3.2 of the paper); tests and oracle
// experiments can substitute a predictor wrapping the simulator's ground
// truth.
#ifndef MIMDRAID_SRC_DISK_ACCESS_PREDICTOR_H_
#define MIMDRAID_SRC_DISK_ACCESS_PREDICTOR_H_

#include <cstdint>

#include "src/disk/timing.h"
#include "src/util/time.h"

namespace mimdraid {

class AccessPredictor {
 public:
  virtual ~AccessPredictor() = default;

  // Predicted access timeline if the op were dispatched now on the idle disk,
  // assuming zero request overhead (overhead shows up only as rotational
  // misses, which the slack mechanism guards against). Must not mutate
  // tracking state.
  virtual AccessPlan Predict(SimTime now, BlockAddr lba, uint32_t sectors,
                             bool is_write) const = 0;

  // The slack (Section 3.2): a predicted rotational wait below this value is
  // at risk of missing its sector because of unobservable request overhead;
  // the scheduler conservatively treats such a candidate as costing a full
  // extra rotation.
  virtual double SlackUs() const = 0;

  // Full rotation time (per the predictor's estimate).
  virtual double RotationUs() const = 0;

  // The predictor's belief about the current arm position.
  virtual HeadState Head() const = 0;

  // Lower bound on Predict(now, lba, ...).total_us for every access a
  // scheduler ranks in one pick at `now`, for pruning: max(seek to the
  // candidate's cylinder, rotational wait from `now`) plus the minimum media
  // transfer, plus whatever fixed offset Predict adds (see AccessBound). A
  // scheduler builds it once per pick, with this one virtual call, and may
  // skip the full Predict for a candidate whose bound already exceeds the
  // best cost found so far (EffectiveServiceUs only ever adds to total_us,
  // so a total_us bound also bounds the effective cost). It is a snapshot:
  // build a new one after OnCompletion or any re-calibration. The default
  // bound is 0 for every access — always valid, prunes nothing — so custom
  // predictors (including test doubles with synthetic cost functions) keep
  // byte-exact scheduler behavior without implementing it.
  virtual AccessBound PickBound(SimTime now) const {
    (void)now;
    return AccessBound();
  }

  // Called when a request is dispatched to the (idle) disk.
  virtual void OnDispatch(SimTime now, BlockAddr lba, uint32_t sectors,
                          bool is_write, double predicted_service_us) = 0;

  // Called when the in-flight request completes. The predictor updates its
  // head estimate and prediction-accuracy statistics.
  virtual void OnCompletion(SimTime completion_us, BlockAddr lba,
                            uint32_t sectors) = 0;

  // Service-time estimate with the slack policy applied: a first rotational
  // wait below slack is assumed to wrap a full rotation.
  double EffectiveServiceUs(const AccessPlan& plan) const {
    double t = plan.total_us;
    if (plan.rotational_us < SlackUs()) {
      t += RotationUs();
    }
    return t;
  }
};

}  // namespace mimdraid

#endif  // MIMDRAID_SRC_DISK_ACCESS_PREDICTOR_H_
