// fedvr::obs round profiler: per-round, per-phase, per-device wall-clock
// accounting for the federated engine.
//
// The trainer owns one RoundProfiler per run. Each round it brackets the
// four phases (broadcast, local solve, aggregate, eval) with ScopedPhase
// and reports every participant's solve time by round SLOT, so a round's
// samples are O(m) — sized by the scheduled count, never by the fleet.
// From those samples the profiler estimates the paper's §4.3 timing-model
// parameters:
//   d_com ≈ mean per-round non-compute time (broadcast + aggregate),
//   d_cmp ≈ mean device solve seconds per inner iteration,
// so a measured round_time(tau) = d_com + d_cmp*tau can be compared against
// the analytic eq. 19 model (fl/timing_model.h).
//
// A disabled profiler (the default) is a null sink: every method returns
// immediately.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "obs/obs.h"

namespace fedvr::obs {

enum class Phase : std::size_t {
  kBroadcast = 0,   // participant selection + model distribution bookkeeping
  kLocalSolve = 1,  // device-parallel local solver execution
  kAggregate = 2,   // weighted averaging + cost accounting
  kEval = 3,        // global loss / accuracy / grad-norm evaluation
};
inline constexpr std::size_t kNumPhases = 4;

[[nodiscard]] const char* phase_name(Phase phase);

struct DeviceSample {
  double solve_seconds = -1.0;  // < 0: the slot ran no solver this round
  std::size_t inner_iterations = 0;
};

struct RoundProfile {
  std::size_t round = 0;
  /// Seconds spent in each phase during this round only (index by Phase).
  std::array<double, kNumPhases> phase_seconds{};
  std::vector<DeviceSample> devices;  // slot-keyed

  [[nodiscard]] double phase(Phase p) const {
    return phase_seconds[static_cast<std::size_t>(p)];
  }
};

/// Cumulative per-phase seconds across all profiled rounds.
struct PhaseTotals {
  std::array<double, kNumPhases> seconds{};

  [[nodiscard]] double phase(Phase p) const {
    return seconds[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (double v : seconds) s += v;
    return s;
  }
};

/// Measured counterpart of fl::TimingModel, in wall-clock seconds.
struct TimingEstimate {
  double d_com = -1.0;  // mean broadcast+aggregate seconds per round
  double d_cmp = -1.0;  // mean device solve seconds per inner iteration
  std::size_t rounds = 0;

  [[nodiscard]] bool valid() const {
    return rounds > 0 && d_com >= 0.0 && d_cmp >= 0.0;
  }
  /// Measured analogue of eq. 19's per-round time d_com + d_cmp * tau.
  [[nodiscard]] double round_time(std::size_t tau) const {
    return d_com + d_cmp * static_cast<double>(tau);
  }
};

class RoundProfiler {
 public:
  /// A profiler constructed disabled never records anything.
  explicit RoundProfiler(bool collect) : collect_(collect) {}

  [[nodiscard]] bool collecting() const { return collect_; }

  /// Starts round `round` with `num_slots` participant slots (the round's
  /// scheduled count, m or N). Ends any round still open. Counts the slots
  /// into obs.profiler.device_samples — the samples the profiler retains.
  void begin_round(std::size_t round, std::size_t num_slots);
  void end_round();

  /// Reports one participant slot's local-solve wall time. Thread-safe as
  /// long as each slot is reported by one thread per round (the trainer's
  /// parallel_for guarantees that).
  void record_device(std::size_t slot, double solve_seconds,
                     std::size_t inner_iterations);

  /// Adds to the current round's phase time; ScopedPhase is the usual way.
  void add_phase_seconds(Phase phase, double seconds);

  /// RAII phase bracket (no-op when the profiler is disabled).
  class ScopedPhase {
   public:
    ScopedPhase(RoundProfiler& profiler, Phase phase)
        : profiler_(profiler.collect_ ? &profiler : nullptr), phase_(phase) {
      if (profiler_ != nullptr) start_ns_ = now_ns();
    }
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;
    ~ScopedPhase() {
      if (profiler_ != nullptr) {
        profiler_->add_phase_seconds(
            phase_, static_cast<double>(now_ns() - start_ns_) / 1e9);
      }
    }

   private:
    RoundProfiler* profiler_;
    Phase phase_;
    std::uint64_t start_ns_ = 0;
  };

  /// Completed rounds, oldest first.
  [[nodiscard]] const std::vector<RoundProfile>& rounds() const {
    return rounds_;
  }

  /// Cumulative per-phase totals over completed and open rounds.
  [[nodiscard]] const PhaseTotals& totals() const { return totals_; }

  /// Timing-model estimate from everything recorded so far (completed
  /// rounds only). Invalid until one round with device samples completes.
  [[nodiscard]] TimingEstimate estimate() const;

 private:
  bool collect_;
  bool round_open_ = false;
  RoundProfile current_;
  std::vector<RoundProfile> rounds_;
  PhaseTotals totals_;
};

}  // namespace fedvr::obs
