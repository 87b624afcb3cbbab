// The synchronous federated engine: Algorithm 1's outer loop, run as a
// discrete-event simulation over each round's participants, in six stages
// (trainer.cpp): select → schedule → solve → combine → account → evaluate.
// What differs between algorithms lives behind fl::RoundPolicy
// (fl/round_policy.h): τ LocalSolver steps + line-12 aggregation for the
// FedProxVR family, one SVRG step per coin-flip iteration for ProxSkip-VR.
//
// Every per-participant buffer is keyed by round slot or device, never
// sized by the fleet: a round over m participants costs O(m·dim) memory.
// Determinism: per-device randomness is forked from the seed by (device,
// round), and every cross-device reduction runs in ascending device order,
// so traces are bit-identical however devices map onto threads.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "comm/channel.h"
#include "data/dataset.h"
#include "data/federation.h"
#include "fl/aggregation.h"
#include "fl/faults.h"
#include "fl/metrics.h"
#include "fl/round_policy.h"
#include "fl/timing_model.h"
#include "nn/model.h"
#include "opt/local_solver.h"
#include "util/thread_pool.h"

namespace fedvr::fl {

/// Run-scoped observability (fedvr::obs). Off by default: the null sink
/// costs one relaxed atomic load per instrumentation site. When enabled,
/// the run records phase/device trace spans, pool and solver counters, and
/// fills RoundMetrics::measured + TrainingTrace::measured_timing.
/// Collection is process-global while the run is active (the previous
/// enable state is restored when run() returns).
struct ObservabilityOptions {
  bool enabled = false;
  /// When non-empty, a Chrome trace_event JSON file written at the end of
  /// run() — open in chrome://tracing or https://ui.perfetto.dev.
  std::string chrome_trace_path;
  /// When non-empty, a JSONL file with the metrics-registry snapshot plus
  /// per-span-name summaries, written at the end of run().
  std::string metrics_jsonl_path;
};

struct TrainerOptions {
  std::size_t rounds = 100;       // T global iterations
  std::uint64_t seed = 1;
  TimingModel timing;
  std::size_t eval_every = 1;     // metric cadence (rounds)
  bool eval_initial = false;      // record a round-0 entry at w̄^(0)
  /// Force an eval entry on the last round even when eval_every does not
  /// land on it (the historical behavior, and the default). Global metrics
  /// are O(fleet) — a sampled million-device smoke run turns this off and
  /// relies purely on param hashes.
  bool eval_final = true;
  bool eval_grad_norm = false;    // ||∇F̄||² costs a full pass; opt-in
  bool collect_theta = false;     // per-device θ diagnostics (costly)
  /// Devices participating per round; nullopt = all (the paper's setting).
  std::optional<std::size_t> devices_per_round;
  /// Stop early once pooled-test accuracy reaches this value (if set).
  std::optional<double> target_accuracy;
  /// The device<->server link (src/comm): uplink compression with optional
  /// error feedback, wire dtypes (float64/float32/int8), and byte-derived
  /// link timing. Every update crosses this seam; with default options the
  /// channel is pure accounting and the arithmetic is bit-identical to the
  /// pre-comm engine.
  comm::ChannelOptions comm;
  /// Optional per-device timing models (heterogeneous hardware): when
  /// non-empty (one per device), a synchronous round costs the *maximum*
  /// participant time instead of options.timing.
  std::vector<TimingModel> per_device_timing;
  /// Deterministic fault injection (crashes, stragglers, lossy uplinks,
  /// update corruption). Disabled by default; see fl/faults.h. Devices that
  /// deliver no update are dropped from line-12 aggregation and the
  /// survivors' weights are renormalized to sum to 1 (a zero-survivor round
  /// keeps w̄^(s-1)).
  FaultModel faults;
  /// The line-12 aggregation rule. Null selects the survivor-reweighted
  /// weighted mean — arithmetic bit-identical to the pre-seam trainer.
  /// Robust alternatives: make_aggregator(AggregatorKind::kMedian /
  /// kTrimmedMean / kNormClippedMean).
  std::shared_ptr<const Aggregator> aggregator;
  /// Server-side update validation and quarantine (fl/aggregation.h).
  /// Validation is always-on and independent of FEDVR_CHECKS: non-finite
  /// (and, when configured, norm-bound-violating) updates are rejected
  /// before they reach the aggregator, repeat offenders are quarantined.
  DefenseOptions defense;
  /// Optional synchronous-round deadline in model-time units: participants
  /// whose fault-adjusted round time exceeds it are excluded from
  /// aggregation, and the server charges at most the deadline per round
  /// (it stops waiting once the deadline passes).
  std::optional<double> round_deadline;
  /// Per-phase / per-device profiling + metrics collection (fedvr::obs).
  ObservabilityOptions observability;
};

class Trainer {
 public:
  /// The trainer borrows the dataset; it must outlive the trainer.
  /// (Wraps `fed` in a data::InMemoryFederation.)
  Trainer(std::shared_ptr<const nn::Model> model,
          const data::FederatedDataset& fed, TrainerOptions options);

  /// Federation-backed construction — the million-device path. With a
  /// data::VirtualFederation, device shards are materialized on demand
  /// inside each participant's solve, so a round of m sampled participants
  /// costs O(m·dim) memory regardless of the fleet size.
  Trainer(std::shared_ptr<const nn::Model> model,
          std::shared_ptr<const data::Federation> fed, TrainerOptions options);

  /// Runs `solver` for options().rounds global rounds starting from a fresh
  /// initialization (or `w0` if provided). `name` labels the trace.
  [[nodiscard]] TrainingTrace run(
      const opt::LocalSolver& solver, const std::string& name,
      std::optional<std::vector<double>> w0 = std::nullopt) const;

  /// Heterogeneous-device variant (paper §3: per-device L_n, lambda_n):
  /// device n runs solvers[n], which may differ in step size, tau, or
  /// estimator. solvers.size() must equal the device count. The timing
  /// model charges the slowest device's tau per round (synchronous rounds).
  [[nodiscard]] TrainingTrace run(
      std::span<const opt::LocalSolver> solvers, const std::string& name,
      std::optional<std::vector<double>> w0 = std::nullopt) const;

  /// Runs `policy` on the round engine (both overloads above do too).
  [[nodiscard]] TrainingTrace run(
      RoundPolicy& policy, const std::string& name,
      std::optional<std::vector<double>> w0 = std::nullopt) const;

  /// The global objective F̄(w) = sum_n (D_n/D) F_n(w) (eq. 2).
  [[nodiscard]] double global_loss(std::span<const double> w) const;

  /// ||∇F̄(w)||², the paper's stationarity gap (eq. 12).
  [[nodiscard]] double global_grad_norm_sq(std::span<const double> w) const;

  /// Accuracy on the pooled test set.
  [[nodiscard]] double test_accuracy(std::span<const double> w) const;

  [[nodiscard]] const TrainerOptions& options() const { return options_; }

 private:
  std::shared_ptr<const nn::Model> model_;
  std::shared_ptr<const data::Federation> fed_;
  TrainerOptions options_;
};

}  // namespace fedvr::fl
