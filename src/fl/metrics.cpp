#include "fl/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/csv.h"
#include "util/error.h"

namespace fedvr::fl {

MeasuredTiming estimate_timing(const PhaseTimings& totals, std::size_t rounds,
                              double solve_seconds,
                              std::size_t solve_iterations) {
  FEDVR_CHECK_MSG(rounds > 0, "timing estimate needs at least one round");
  return {.d_com = (totals.broadcast + totals.aggregate) /
                   static_cast<double>(rounds),
          .d_cmp = solve_iterations > 0
                       ? solve_seconds / static_cast<double>(solve_iterations)
                       : 0.0};
}

std::pair<double, std::size_t> TrainingTrace::best_accuracy() const {
  FEDVR_CHECK_MSG(!rounds.empty(), "empty training trace");
  double best = -1.0;
  std::size_t best_round = 0;
  for (const auto& r : rounds) {
    if (r.test_accuracy > best) {
      best = r.test_accuracy;
      best_round = r.round;
    }
  }
  return {best, best_round};
}

namespace {
/// The NaN policy shared by the loss statistics: a NaN round loss reads as
/// +inf (maximally bad), so min/max/threshold comparisons — where NaN would
/// silently compare false — behave as documented in metrics.h.
double nan_as_inf(double loss) {
  return std::isnan(loss) ? std::numeric_limits<double>::infinity() : loss;
}
}  // namespace

std::optional<std::size_t> TrainingTrace::first_round_below_loss(
    double target) const {
  for (const auto& r : rounds) {
    if (nan_as_inf(r.train_loss) <= target) return r.round;
  }
  return std::nullopt;
}

double TrainingTrace::min_train_loss() const {
  FEDVR_CHECK_MSG(!rounds.empty(), "empty training trace");
  double best = std::numeric_limits<double>::infinity();
  for (const auto& r : rounds) best = std::min(best, nan_as_inf(r.train_loss));
  return best;
}

double TrainingTrace::max_train_loss() const {
  FEDVR_CHECK_MSG(!rounds.empty(), "empty training trace");
  double worst = -std::numeric_limits<double>::infinity();
  for (const auto& r : rounds) {
    worst = std::max(worst, nan_as_inf(r.train_loss));
  }
  return worst;
}

bool TrainingTrace::diverged(double factor) const {
  // A NaN loss at ANY round is divergence, full stop. The previous
  // last-round-only check let a mid-trace NaN (or a NaN starting loss, which
  // makes `last > factor * first` vacuously false) pass the detector.
  for (const auto& r : rounds) {
    if (std::isnan(r.train_loss)) return true;
  }
  if (rounds.size() < 2) return false;
  const double first = rounds.front().train_loss;
  const double last = rounds.back().train_loss;
  return !std::isfinite(last) || last > factor * first;
}

void TrainingTrace::write_csv(const std::string& path) const {
  // CSV schema v2 (DESIGN.md §11): dropped_devices narrowed to crashes
  // only, quarantined_devices renamed to quarantined_device_rounds (it
  // always counted device-rounds), and undelivered_updates appended. Column
  // order is otherwise unchanged.
  util::CsvWriter csv(path,
                      {"algorithm", "round", "train_loss", "test_accuracy",
                       "grad_norm_sq", "model_time", "wall_seconds",
                       "mean_local_theta", "comm_bytes", "sample_grad_evals",
                       "param_hash", "dropped_devices", "straggler_devices",
                       "uplink_retries", "deadline_misses",
                       "realized_round_time", "t_broadcast", "t_local_solve",
                       "t_aggregate", "t_eval", "corrupted_updates",
                       "rejected_updates", "quarantined_device_rounds",
                       "uplink_bytes", "downlink_bytes",
                       "undelivered_updates"});
  for (const auto& r : rounds) {
    // Measured phase columns are -1 when the run was not profiled, matching
    // the grad_norm_sq "not evaluated" convention.
    const PhaseTimings timings =
        r.measured.value_or(PhaseTimings{-1.0, -1.0, -1.0, -1.0});
    csv.builder()
        .add(algorithm)
        .add(r.round)
        .add(r.train_loss)
        .add(r.test_accuracy)
        .add(r.grad_norm_sq)
        .add(r.model_time)
        .add(r.wall_seconds)
        .add(r.mean_local_theta)
        .add(r.comm_bytes)
        .add(r.sample_grad_evals)
        .add(static_cast<std::size_t>(r.param_hash))
        .add(r.dropped_devices)
        .add(r.straggler_devices)
        .add(r.uplink_retries)
        .add(r.deadline_misses)
        .add(r.realized_round_time)
        .add(timings.broadcast)
        .add(timings.local_solve)
        .add(timings.aggregate)
        .add(timings.eval)
        .add(r.corrupted_updates)
        .add(r.rejected_updates)
        .add(r.quarantined_device_rounds)
        .add(r.uplink_bytes)
        .add(r.downlink_bytes)
        .add(r.undelivered_updates)
        .commit();
  }
}

}  // namespace fedvr::fl
