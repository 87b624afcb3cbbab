// The round engine's measured timings: RoundMetrics::measured and
// TrainingTrace::measured_timing agree with fl::estimate_timing over the
// rounds actually run, eval stays out of d_com, and every run keeps its own
// totals.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "fl/trainer.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "testing/quadratic_model.h"

namespace fedvr::fl {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;

constexpr std::size_t kDim = 4;

data::FederatedDataset three_device_fed() {
  data::FederatedDataset fed;
  for (std::size_t d = 0; d < 3; ++d) {
    fed.train.push_back(quadratic_dataset(12 + 4 * d, kDim,
                                          static_cast<double>(d), 0.2,
                                          500 + d));
    fed.test.push_back(
        quadratic_dataset(6, kDim, static_cast<double>(d), 0.2, 600 + d));
  }
  return fed;
}

opt::LocalSolver gd_solver(std::shared_ptr<const nn::Model> model,
                           std::size_t tau) {
  opt::LocalSolverOptions o;
  o.estimator = opt::Estimator::kFullGradient;
  o.tau = tau;
  o.eta = 0.1;
  o.mu = 0.1;
  return opt::LocalSolver(std::move(model), o);
}

TrainerOptions profiled_options(std::size_t rounds) {
  TrainerOptions opts;
  opts.rounds = rounds;
  opts.seed = 5;
  opts.observability.enabled = true;
  return opts;
}

// Spans and the enable flag are process-global: isolate each test.
class MeasuredTimingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = obs::set_enabled(false);
    obs::clear_spans();
  }
  void TearDown() override {
    obs::clear_spans();
    obs::set_enabled(prev_);
  }
  bool prev_ = false;
};

TEST_F(MeasuredTimingTest, DcomIsCumulativeBroadcastPlusAggregatePerRound) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = three_device_fed();
  const auto trace = Trainer(model, fed, profiled_options(6))
                         .run(gd_solver(model, 8), "profiled");
  ASSERT_EQ(trace.rounds.size(), 6u);
  ASSERT_TRUE(trace.measured_timing.has_value());
  const PhaseTimings& last = *trace.back().measured;
  EXPECT_DOUBLE_EQ(trace.measured_timing->d_com,
                   (last.broadcast + last.aggregate) / 6.0);
  EXPECT_GT(last.local_solve, 0.0);
  EXPECT_GT(trace.measured_timing->d_cmp, 0.0);
  EXPECT_TRUE(std::isfinite(trace.measured_timing->d_cmp));
}

TEST_F(MeasuredTimingTest, EarlyStopDividesByRoundsRun) {
  // Every accuracy meets a target of 0, so the run stops after round 1 of
  // 10: the estimate covers one round, not the configured ten.
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = three_device_fed();
  TrainerOptions opts = profiled_options(10);
  opts.target_accuracy = 0.0;
  const auto trace = Trainer(model, fed, opts).run(gd_solver(model, 4), "es");
  ASSERT_EQ(trace.rounds.size(), 1u);
  EXPECT_EQ(trace.back().round, 1u);
  ASSERT_TRUE(trace.measured_timing.has_value());
  const PhaseTimings& last = *trace.back().measured;
  EXPECT_DOUBLE_EQ(trace.measured_timing->d_com,
                   last.broadcast + last.aggregate);
}

TEST_F(MeasuredTimingTest, NoEstimateWhenStoppedAtRoundZero) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = three_device_fed();
  TrainerOptions opts = profiled_options(5);
  opts.eval_initial = true;
  opts.target_accuracy = 0.0;
  const auto trace = Trainer(model, fed, opts).run(gd_solver(model, 4), "r0");
  ASSERT_EQ(trace.rounds.size(), 1u);
  EXPECT_EQ(trace.back().round, 0u);
  // The round-0 eval is measured, but no round ran to estimate from.
  ASSERT_TRUE(trace.back().measured.has_value());
  EXPECT_FALSE(trace.measured_timing.has_value());
}

TEST_F(MeasuredTimingTest, InitialEvalCountsTowardEvalOnly) {
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = three_device_fed();
  TrainerOptions opts = profiled_options(3);
  opts.eval_initial = true;
  const auto trace = Trainer(model, fed, opts).run(gd_solver(model, 4), "e0");
  ASSERT_EQ(trace.rounds.size(), 4u);
  const PhaseTimings& r0 = *trace.rounds[0].measured;
  EXPECT_EQ(r0.broadcast, 0.0);
  EXPECT_EQ(r0.local_solve, 0.0);
  EXPECT_EQ(r0.aggregate, 0.0);
  EXPECT_GT(r0.eval, 0.0);
  const PhaseTimings& last = *trace.back().measured;
  EXPECT_GT(last.eval, r0.eval);
  ASSERT_TRUE(trace.measured_timing.has_value());
  EXPECT_DOUBLE_EQ(trace.measured_timing->d_com,
                   (last.broadcast + last.aggregate) / 3.0);
}

TEST_F(MeasuredTimingTest, AllCrashedRoundsReadZeroDcmp) {
  // No slot runs a solver: d_cmp has no iterations to divide by and reads
  // 0, not NaN; d_com still measures the rounds' broadcast and aggregate.
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = three_device_fed();
  TrainerOptions opts = profiled_options(4);
  FaultModelConfig cfg;
  cfg.dropout_prob = 1.0;
  opts.faults = FaultModel(cfg);
  const auto profiled =
      Trainer(model, fed, opts).run(gd_solver(model, 4), "crashed");
  ASSERT_TRUE(profiled.measured_timing.has_value());
  EXPECT_EQ(profiled.measured_timing->d_cmp, 0.0);
  EXPECT_GE(profiled.measured_timing->d_com, 0.0);
  EXPECT_TRUE(std::isfinite(profiled.measured_timing->d_com));
  EXPECT_EQ(profiled.back().dropped_devices, 4u * fed.num_devices());

  opts.observability.enabled = false;
  const auto plain =
      Trainer(model, fed, opts).run(gd_solver(model, 4), "crashed");
  EXPECT_EQ(profiled.final_param_hash, plain.final_param_hash);
}

TEST_F(MeasuredTimingTest, EachRunKeepsItsOwnTotals) {
  // A long run followed by a short one on the same Trainer: if totals
  // carried over, the short run's phases would add up to more than its own
  // wall clock.
  auto model = std::make_shared<QuadraticModel>(kDim);
  const auto fed = three_device_fed();
  const Trainer trainer(model, fed, profiled_options(3));
  const auto long_run = trainer.run(gd_solver(model, 400), "long");
  const auto short_run = trainer.run(gd_solver(model, 1), "short");
  ASSERT_TRUE(long_run.back().measured.has_value());
  ASSERT_TRUE(short_run.back().measured.has_value());
  EXPECT_LE(short_run.back().measured->sum(),
            short_run.back().wall_seconds + 1e-9);
}

}  // namespace
}  // namespace fedvr::fl
