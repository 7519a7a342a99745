// Randomized soak tests for the array controller, parameterized over aspect
// ratios and schedulers: every submitted operation must complete, background
// propagation must drain, and the controller's accounting must balance.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "src/array/array_layout.h"
#include "src/array/controller.h"
#include "src/calib/predictor.h"
#include "src/disk/sim_disk.h"
#include "src/sim/auditor.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace mimdraid {
namespace {

struct SoakParam {
  int ds;
  int dr;
  int dm;
  SchedulerKind sched;
  bool foreground;
  double read_frac;
};

class ControllerSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(ControllerSoak, AllOpsCompleteAndDrain) {
  const SoakParam param = GetParam();
  Simulator sim;
  ArrayAspect aspect;
  aspect.ds = param.ds;
  aspect.dr = param.dr;
  aspect.dm = param.dm;
  const int d = aspect.TotalDisks();
  std::vector<std::unique_ptr<SimDisk>> disks;
  std::vector<std::unique_ptr<AccessPredictor>> preds;
  std::vector<SimDisk*> dptr;
  std::vector<AccessPredictor*> pptr;
  for (int i = 0; i < d; ++i) {
    disks.push_back(std::make_unique<SimDisk>(
        &sim, MakeTestGeometry(), MakeTestSeekProfile(),
        DiskNoiseModel::None(), 33 + i, i * 431.0));
    preds.push_back(std::make_unique<OraclePredictor>(disks.back().get(), 0.0));
    dptr.push_back(disks.back().get());
    pptr.push_back(preds.back().get());
  }
  const uint64_t dataset = 3200;
  ArrayLayout layout(&disks[0]->layout(), aspect, /*stripe_unit=*/16, dataset);
  // Run the whole soak under the invariant auditor: it observes every event,
  // disk op, scheduler pick, and queue/NVRAM transition without altering any
  // decision, and aborts the test on the first violation.
  InvariantAuditor auditor;
  ArrayControllerOptions copts;
  copts.drives.scheduler = param.sched;
  copts.foreground_write_propagation = param.foreground;
  copts.delayed_table_limit = 50;
  copts.drives.auditor = &auditor;
  ArrayController controller(&sim, dptr, pptr, &layout, copts);

  Rng rng(static_cast<uint64_t>(param.ds * 100 + param.dr * 10 + param.dm));
  constexpr int kOps = 400;
  int done = 0;
  SimTime last_completion;
  for (int i = 0; i < kOps; ++i) {
    const uint32_t sectors = 1 + static_cast<uint32_t>(rng.UniformU64(24));
    const uint64_t lba = rng.UniformU64(dataset - sectors);
    const DiskOp op =
        rng.Bernoulli(param.read_frac) ? DiskOp::kRead : DiskOp::kWrite;
    controller.Submit(op, lba, sectors, [&](const IoResult& r) {
      ++done;
      EXPECT_EQ(r.status, IoStatus::kOk);
      EXPECT_GE(r.completion_us, last_completion - SimDuration(1'000'000));
      last_completion = std::max(last_completion, r.completion_us);
    });
    // Interleave: sometimes let the array make progress mid-burst.
    if (rng.Bernoulli(0.3)) {
      sim.RunUntil(sim.Now() +
                   SimDuration(static_cast<int64_t>(rng.UniformU64(20'000))));
    }
  }
  while (done < kOps) {
    ASSERT_TRUE(sim.Step());
  }
  // Drain background propagation.
  while (!controller.Idle() && sim.Step()) {
  }
  EXPECT_TRUE(controller.Idle());
  EXPECT_EQ(controller.DelayedBacklog(), 0u);
  EXPECT_EQ(controller.TotalQueued(), 0u);
  controller.AuditQuiescent();
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.checks_run(), 0u);
  const ArrayStats& stats = controller.stats();
  EXPECT_EQ(controller.op_stats().reads_completed +
                controller.op_stats().writes_completed,
            static_cast<uint64_t>(kOps));
  if (param.foreground || aspect.ReplicasPerBlock() == 1) {
    EXPECT_EQ(stats.delayed_writes_completed + stats.delayed_writes_forced, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ControllerSoak,
    ::testing::Values(
        SoakParam{1, 1, 1, SchedulerKind::kFcfs, false, 0.5},
        SoakParam{2, 1, 1, SchedulerKind::kLook, false, 0.5},
        SoakParam{2, 1, 1, SchedulerKind::kClook, false, 0.7},
        SoakParam{1, 2, 1, SchedulerKind::kRlook, false, 0.5},
        SoakParam{1, 2, 1, SchedulerKind::kRsatf, false, 0.3},
        SoakParam{2, 2, 1, SchedulerKind::kRsatf, false, 0.5},
        SoakParam{2, 2, 1, SchedulerKind::kRsatf, true, 0.5},
        SoakParam{1, 1, 2, SchedulerKind::kSatf, false, 0.5},
        SoakParam{1, 1, 3, SchedulerKind::kSatf, false, 0.2},
        SoakParam{1, 2, 2, SchedulerKind::kRsatf, false, 0.5},
        SoakParam{1, 2, 2, SchedulerKind::kRsatf, true, 0.4},
        SoakParam{2, 1, 2, SchedulerKind::kSstf, false, 0.6}),
    [](const auto& suite_info) {
      const SoakParam& p = suite_info.param;
      return std::to_string(p.ds) + "x" + std::to_string(p.dr) + "x" +
             std::to_string(p.dm) + "_" +
             SchedulerKindName(p.sched) + (p.foreground ? "_fg" : "_bg");
    });

}  // namespace
}  // namespace mimdraid
