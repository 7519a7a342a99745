// Property tests for the Section 2 models and the Configurator, swept over
// parameter grids (disk counts, p ratios, queue depths, S/R ratios).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "src/model/analytic.h"
#include "src/model/configurator.h"

namespace mimdraid {
namespace {

class ModelGrid
    : public ::testing::TestWithParam<std::tuple<int, double, double>> {
 protected:
  int d() const { return std::get<0>(GetParam()); }
  double p() const { return std::get<1>(GetParam()); }
  double q() const { return std::get<2>(GetParam()); }
};

constexpr double kS = 9900.0;
constexpr double kR = 6000.0;

TEST_P(ModelGrid, ContinuousOptimumBeatsNeighbors) {
  if (p() <= 0.5) {
    GTEST_SKIP() << "replication precluded";
  }
  const AspectRatio opt = q() > 3.0
                              ? OptimalAspectForRlook(kS, kR, d(), p(), q())
                              : OptimalAspectForMixed(kS, kR, d(), p());
  const auto eval = [&](double ds, double dr) {
    const double seek = q() > 3.0 ? kS / (q() * ds) : kS / (3.0 * ds);
    return seek + p() * kR / (2.0 * dr) +
           (1.0 - p()) * (kR - kR / (2.0 * dr));
  };
  const double at_opt = eval(opt.ds, opt.dr);
  for (double f : {0.7, 0.85, 1.2, 1.4}) {
    const double ds = opt.ds * f;
    EXPECT_GE(eval(ds, d() / ds) + 1e-9, at_opt) << "f=" << f;
  }
}

TEST_P(ModelGrid, BestLatencyDecreasesWithDisks) {
  if (p() <= 0.5) {
    GTEST_SKIP();
  }
  EXPECT_LT(BestMixedLatencyUs(kS, kR, 2 * d(), p()),
            BestMixedLatencyUs(kS, kR, d(), p()) + 1e-9);
}

TEST_P(ModelGrid, ThroughputMonotoneInQueue) {
  const double n1 = 300.0;
  double prev = 0.0;
  for (double total_q : {1.0, 2.0, 4.0, 8.0, 16.0, 64.0}) {
    const double nd = ArrayThroughput(d(), total_q, n1);
    EXPECT_GE(nd + 1e-9, prev);
    EXPECT_LE(nd, d() * n1 + 1e-9);
    prev = nd;
  }
}

TEST_P(ModelGrid, ConfiguratorRespectsConstraints) {
  ConfiguratorInputs in;
  in.num_disks = d();
  in.max_seek_us = kS;
  in.rotation_us = kR;
  in.p = p();
  in.queue_depth = q();
  const ConfigCandidate choice = ChooseConfig(in);
  EXPECT_EQ(choice.aspect.TotalDisks(), d());
  EXPECT_LE(choice.aspect.dr, in.max_dr);
  EXPECT_EQ(choice.aspect.dm, 1);
  EXPECT_EQ(d() % choice.aspect.dr, 0);
  if (p() <= 0.5) {
    EXPECT_EQ(choice.aspect.dr, 1);  // pure striping
  }
}

TEST_P(ModelGrid, ConfiguratorPickNeverExceedsContinuousOptimum) {
  if (p() <= 0.5) {
    GTEST_SKIP();
  }
  ConfiguratorInputs in;
  in.num_disks = d();
  in.max_seek_us = kS;
  in.rotation_us = kR;
  in.p = p();
  in.queue_depth = q();
  const ConfigCandidate choice = ChooseConfig(in);
  const AspectRatio continuous =
      q() > 3.0 ? OptimalAspectForRlook(kS, kR, d(), p(), q())
                : OptimalAspectForMixed(kS, kR, d(), p());
  // The paper's rule: largest factor at or below the continuous optimum
  // (and at most max_dr); Dr is still at least 1 when the optimum dips
  // below one replica.
  const double allowed = std::max(
      1.0, std::min(static_cast<double>(in.max_dr), continuous.dr));
  EXPECT_LE(choice.aspect.dr, allowed + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelGrid,
    ::testing::Combine(::testing::Values(2, 4, 6, 12, 36),
                       ::testing::Values(0.4, 0.6, 0.8, 1.0),
                       ::testing::Values(1.0, 8.0, 32.0)),
    [](const auto& suite_info) {
      std::string name = "D";
      name += std::to_string(std::get<0>(suite_info.param));
      name += "_p";
      name += std::to_string(
          static_cast<int>(std::get<1>(suite_info.param) * 100));
      name += "_q";
      name += std::to_string(static_cast<int>(std::get<2>(suite_info.param)));
      return name;
    });

// Scaling law: the rule-of-thumb sqrt(D) improvement (Section 2.6).
TEST(ModelScaling, SqrtDImprovement) {
  for (int d : {4, 9, 16, 25}) {
    const double t1 = BestReadLatencyUs(kS, kR, 1);
    const double td = BestReadLatencyUs(kS, kR, d);
    EXPECT_NEAR(t1 / td, std::sqrt(static_cast<double>(d)), 1e-9);
  }
}

}  // namespace
}  // namespace mimdraid
