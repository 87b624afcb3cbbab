#include "obs/profiler.h"

#include "obs/registry.h"
#include "util/error.h"

namespace fedvr::obs {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kBroadcast: return "broadcast";
    case Phase::kLocalSolve: return "local_solve";
    case Phase::kAggregate: return "aggregate";
    case Phase::kEval: return "eval";
  }
  return "?";
}

void RoundProfiler::begin_round(std::size_t round, std::size_t num_slots) {
  if (!collect_) return;
  if (round_open_) end_round();
  current_ = RoundProfile{};
  current_.round = round;
  current_.devices.assign(num_slots, DeviceSample{});
  FEDVR_OBS_COUNT("obs.profiler.device_samples", num_slots);
  round_open_ = true;
}

void RoundProfiler::end_round() {
  if (!collect_ || !round_open_) return;
  rounds_.push_back(std::move(current_));
  current_ = RoundProfile{};
  round_open_ = false;
}

void RoundProfiler::record_device(std::size_t slot, double solve_seconds,
                                  std::size_t inner_iterations) {
  if (!collect_) return;
  FEDVR_CHECK_MSG(round_open_, "record_device outside begin/end_round");
  FEDVR_CHECK_MSG(slot < current_.devices.size(),
                  "slot " << slot << " out of range");
  current_.devices[slot] = {solve_seconds, inner_iterations};
}

void RoundProfiler::add_phase_seconds(Phase phase, double seconds) {
  if (!collect_) return;
  const auto p = static_cast<std::size_t>(phase);
  if (round_open_) current_.phase_seconds[p] += seconds;
  totals_.seconds[p] += seconds;
}

TimingEstimate RoundProfiler::estimate() const {
  TimingEstimate est;
  if (rounds_.empty()) return est;
  double com_seconds = 0.0;
  double solve_seconds = 0.0;
  std::size_t solve_iterations = 0;
  for (const auto& r : rounds_) {
    com_seconds += r.phase(Phase::kBroadcast) + r.phase(Phase::kAggregate);
    for (const auto& d : r.devices) {
      if (d.solve_seconds < 0.0) continue;
      solve_seconds += d.solve_seconds;
      solve_iterations += d.inner_iterations;
    }
  }
  est.rounds = rounds_.size();
  est.d_com = com_seconds / static_cast<double>(rounds_.size());
  est.d_cmp = solve_iterations > 0
                  ? solve_seconds / static_cast<double>(solve_iterations)
                  : 0.0;
  return est;
}

}  // namespace fedvr::obs
