#include "fl/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "fl/timing_model.h"
#include "testing/temp_dir.h"
#include "util/error.h"

namespace fedvr::fl {
namespace {

using fedvr::util::Error;

TrainingTrace make_trace(std::initializer_list<double> losses,
                         std::initializer_list<double> accs) {
  TrainingTrace t;
  t.algorithm = "test";
  auto li = losses.begin();
  auto ai = accs.begin();
  std::size_t round = 1;
  for (; li != losses.end() && ai != accs.end(); ++li, ++ai, ++round) {
    RoundMetrics m;
    m.round = round;
    m.train_loss = *li;
    m.test_accuracy = *ai;
    t.rounds.push_back(m);
  }
  return t;
}

TEST(TrainingTrace, BestAccuracyReturnsFirstMaximum) {
  const auto t = make_trace({1.0, 0.5, 0.4, 0.39}, {0.1, 0.9, 0.9, 0.8});
  const auto [best, round] = t.best_accuracy();
  EXPECT_DOUBLE_EQ(best, 0.9);
  EXPECT_EQ(round, 2u);
}

TEST(TrainingTrace, BestAccuracyOnEmptyThrows) {
  const TrainingTrace t;
  EXPECT_THROW((void)t.best_accuracy(), Error);
}

TEST(TrainingTrace, FirstRoundBelowLoss) {
  const auto t = make_trace({1.0, 0.6, 0.3, 0.2}, {0, 0, 0, 0});
  EXPECT_EQ(t.first_round_below_loss(0.5).value(), 3u);
  EXPECT_EQ(t.first_round_below_loss(1.5).value(), 1u);
  EXPECT_FALSE(t.first_round_below_loss(0.1).has_value());
}

TEST(TrainingTrace, MinTrainLoss) {
  const auto t = make_trace({1.0, 0.2, 0.5}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(t.min_train_loss(), 0.2);
}

TEST(TrainingTrace, MaxTrainLoss) {
  const auto t = make_trace({1.0, 0.2, 0.5}, {0, 0, 0});
  EXPECT_DOUBLE_EQ(t.max_train_loss(), 1.0);
}

TEST(TrainingTrace, DivergenceDetector) {
  EXPECT_FALSE(make_trace({1.0, 0.5}, {0, 0}).diverged());
  EXPECT_TRUE(make_trace({1.0, 5.0}, {0, 0}).diverged());
  auto nan_trace = make_trace({1.0, 1.0}, {0, 0});
  nan_trace.rounds.back().train_loss =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(nan_trace.diverged());
  // Single-round traces cannot be classified.
  EXPECT_FALSE(make_trace({9.0}, {0}).diverged());
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(TrainingTrace, NanAnywhereCountsAsDivergence) {
  // Regression: the detector used to inspect only the LAST round's loss, so
  // a run that blew up mid-trace and then "recovered" to a finite value —
  // or one whose FIRST loss was NaN, making `last > factor * first`
  // vacuously false — was reported as healthy.
  auto mid = make_trace({1.0, 0.5, 0.4}, {0, 0, 0});
  mid.rounds[1].train_loss = kNaN;
  EXPECT_TRUE(mid.diverged());
  auto first = make_trace({1.0, 0.5}, {0, 0});
  first.rounds.front().train_loss = kNaN;
  EXPECT_TRUE(first.diverged());
  // Even a single-round trace with a NaN loss is divergence.
  auto single = make_trace({1.0}, {0});
  single.rounds.front().train_loss = kNaN;
  EXPECT_TRUE(single.diverged());
  // +Inf at the end is divergence via the non-finite check.
  auto inf = make_trace({1.0, 1.0}, {0, 0});
  inf.rounds.back().train_loss = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(inf.diverged());
}

TEST(TrainingTrace, LossStatsTreatNanAsPositiveInfinity) {
  // Regression: NaN comparisons are false, so a NaN round used to be able
  // to win min_train_loss (never beaten) or be skipped by max_train_loss
  // and first_round_below_loss. The documented policy is NaN == +inf.
  auto t = make_trace({1.0, 0.5, 0.2}, {0, 0, 0});
  t.rounds[1].train_loss = kNaN;
  EXPECT_DOUBLE_EQ(t.min_train_loss(), 0.2);
  EXPECT_TRUE(std::isinf(t.max_train_loss()));
  EXPECT_GT(t.max_train_loss(), 0.0);
  // The NaN round (round 2) can never satisfy "below target"; round 3 does.
  EXPECT_EQ(t.first_round_below_loss(0.5).value(), 3u);

  auto all_nan = make_trace({1.0}, {0});
  all_nan.rounds.front().train_loss = kNaN;
  EXPECT_TRUE(std::isinf(all_nan.min_train_loss()));
  EXPECT_FALSE(all_nan.first_round_below_loss(1e100).has_value());
}

TEST(TrainingTrace, WriteCsvRoundTrips) {
  auto t = make_trace({0.7, 0.6}, {0.5, 0.55});
  t.rounds[1].corrupted_updates = 3;
  t.rounds[1].rejected_updates = 2;
  t.rounds[1].quarantined_device_rounds = 1;
  t.rounds[1].uplink_bytes = 5;
  t.rounds[1].downlink_bytes = 4;
  t.rounds[1].undelivered_updates = 7;
  const auto dir = testing::make_temp_dir("fedvr_metrics_test");
  const std::string path = (dir / "trace.csv").string();
  t.write_csv(path);
  std::ifstream in(path);
  std::string header, row1, row2;
  std::getline(in, header);
  std::getline(in, row1);
  std::getline(in, row2);
  // SCHEMA PIN (v2, DESIGN.md §11): this header is the trace-file contract
  // consumed by plotting and sweep tooling. Columns are position-stable —
  // add new ones at the END only, and update this pin (and DESIGN.md's
  // schema note) when you do. v2 renamed quarantined_devices to
  // quarantined_device_rounds and appended undelivered_updates.
  EXPECT_EQ(header,
            "algorithm,round,train_loss,test_accuracy,grad_norm_sq,"
            "model_time,wall_seconds,mean_local_theta,comm_bytes,"
            "sample_grad_evals,param_hash,dropped_devices,straggler_devices,"
            "uplink_retries,deadline_misses,realized_round_time,"
            "t_broadcast,t_local_solve,t_aggregate,t_eval,"
            "corrupted_updates,rejected_updates,quarantined_device_rounds,"
            "uplink_bytes,downlink_bytes,undelivered_updates");
  EXPECT_EQ(row1.substr(0, 11), "test,1,0.7,");
  EXPECT_EQ(row2.substr(0, 11), "test,2,0.6,");
  // Defense counters + split byte counters + the appended undelivered
  // column land in the last six columns.
  EXPECT_EQ(row1.substr(row1.size() - 12), ",0,0,0,0,0,0");
  EXPECT_EQ(row2.substr(row2.size() - 12), ",3,2,1,5,4,7");
  std::filesystem::remove_all(dir);
}

TEST(EstimateTiming, EstimatesTimingModelFromStageTotals) {
  // Round 1: broadcast 0.1 + aggregate 0.2, devices 2 s/10 iters and
  // 1 s/10 iters. Round 2: broadcast 0.3 + aggregate 0.4, one device
  // 3 s/20 iters. A slot that ran no solver adds nothing to either sum.
  const PhaseTimings totals{
      .broadcast = 0.1 + 0.3, .local_solve = 6.5, .aggregate = 0.2 + 0.4};
  const MeasuredTiming est = estimate_timing(totals, 2, 2.0 + 1.0 + 3.0, 40);
  EXPECT_DOUBLE_EQ(est.d_com, (0.3 + 0.7) / 2.0);
  EXPECT_DOUBLE_EQ(est.d_cmp, 6.0 / 40.0);
  EXPECT_DOUBLE_EQ(est.round_time(10), est.d_com + 10.0 * est.d_cmp);
  // No slot ran a solver: d_cmp reads 0, not NaN.
  EXPECT_EQ(estimate_timing(totals, 2, 0.0, 0).d_cmp, 0.0);
  EXPECT_THROW((void)estimate_timing(totals, 0, 6.0, 40), Error);
}

TEST(EstimateTiming, EvalTimeIsExcludedFromDcom) {
  const PhaseTimings totals{
      .broadcast = 0.1, .local_solve = 1.0, .aggregate = 0.1, .eval = 100.0};
  EXPECT_DOUBLE_EQ(estimate_timing(totals, 1, 1.0, 10).d_com, 0.2);
}

TEST(EstimateTiming, SolveStageWallTimeDoesNotEnterEitherEstimate) {
  // Slots run in parallel, so the solve stage's wall time is not what a
  // device spends: d_cmp comes from the per-slot sums alone, and d_com
  // never sees the solve stage.
  const PhaseTimings narrow{.broadcast = 0.2, .local_solve = 0.5,
                            .aggregate = 0.4};
  PhaseTimings wide = narrow;
  wide.local_solve = 50.0;
  const MeasuredTiming a = estimate_timing(narrow, 3, 2.0, 80);
  const MeasuredTiming b = estimate_timing(wide, 3, 2.0, 80);
  EXPECT_EQ(a.d_com, b.d_com);
  EXPECT_EQ(a.d_cmp, b.d_cmp);
  EXPECT_DOUBLE_EQ(a.d_cmp, 2.0 / 80.0);
}

TEST(EstimateTiming, DcomIsThePerRoundMean) {
  const PhaseTimings totals{.broadcast = 1.0, .aggregate = 3.0};
  EXPECT_DOUBLE_EQ(estimate_timing(totals, 1, 0.0, 0).d_com, 4.0);
  EXPECT_DOUBLE_EQ(estimate_timing(totals, 4, 0.0, 0).d_com, 1.0);
  EXPECT_DOUBLE_EQ(estimate_timing(totals, 8, 0.0, 0).d_com, 0.5);
}

TEST(PhaseTimings, SumAddsAllFourStages) {
  const PhaseTimings t{
      .broadcast = 0.5, .local_solve = 2.0, .aggregate = 0.25, .eval = 1.0};
  EXPECT_DOUBLE_EQ(t.sum(), 3.75);
  EXPECT_EQ(PhaseTimings{}.sum(), 0.0);
}

TEST(MeasuredTiming, RoundTimeIsAffineInTau) {
  // Eq. 19 on the measured constants: d_com + d_cmp * tau.
  const MeasuredTiming m{.d_com = 0.3, .d_cmp = 0.02};
  EXPECT_DOUBLE_EQ(m.round_time(0), 0.3);
  EXPECT_DOUBLE_EQ(m.round_time(1), 0.32);
  EXPECT_DOUBLE_EQ(m.round_time(50), 1.3);
}

}  // namespace
}  // namespace fedvr::fl
