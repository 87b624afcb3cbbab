// The round policy: the algorithm-specific part of a federated round.
//
// fl::Trainer owns the round engine (w⁰, selection, the fault/timing event
// schedule, the fault and byte ledgers, the channel, evaluation, early
// stop, observability) and asks a RoundPolicy only what differs between
// algorithms — in the shape of a solver's allocate(n, m) + solve(...):
// per-run state, whether a round communicates, one participant's local
// work, the server step, and the model metrics are evaluated at.
//
// Two implementations: the FedProxVR family behind Trainer::run(solver),
// and core::make_proxskip_vr_policy (ProxSkip-VR).
//
// Determinism contract: solve() writes only its own slot's or device's
// state and draws randomness only from forks of (seed, device, round);
// every other call runs serially.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "comm/channel.h"
#include "data/federation.h"
#include "fl/event_engine.h"
#include "fl/faults.h"
#include "nn/model.h"
#include "opt/workspace.h"

namespace fedvr::fl {

struct TrainerOptions;

/// What a policy may read; valid while the Trainer running it lives.
struct RunContext {
  const nn::Model& model;
  const data::Federation& fed;
  const TrainerOptions& options;
};

/// One round as the engine scheduled it. Slot k is participants[k]; events
/// and the schedule's outcomes are slot-keyed.
struct RoundState {
  std::size_t round = 0;
  bool communicate = true;
  std::span<const std::size_t> participants;
  std::span<const FaultEvent> events;
  const RoundSchedule& schedule;
  comm::Channel& channel;
};

/// One participant's local work, as reported to the engine's ledgers.
struct SlotWork {
  /// Local iterations run; 0 when no solver ran (no measured d_cmp time).
  std::size_t inner_iterations = 0;
  std::size_t sample_grad_evals = 0;
  /// Measured θ diagnostic; < 0 when not measured.
  double theta = -1.0;
  /// Serialized uplink size actually sent; 0 charges the a-priori size.
  std::size_t uplink_bytes = 0;
};

/// The server step's report.
struct CombineResult {
  /// A model went down to every scheduled participant (downlink charged).
  bool broadcast = true;
  /// Gradient work the server step caused (ProxSkip-VR's anchor refresh).
  std::size_t sample_grad_evals = 0;
  std::size_t rejected_updates = 0;
};

class RoundPolicy {
 public:
  RoundPolicy() = default;
  RoundPolicy(const RoundPolicy&) = delete;
  RoundPolicy& operator=(const RoundPolicy&) = delete;
  virtual ~RoundPolicy() = default;

  /// Sizes per-run state and starts from `w0`. Returns the sample-gradient
  /// evaluations the set-up spent. Called once per run, before round 1.
  virtual std::size_t allocate(const RunContext& run,
                               std::span<const double> w0) = 0;

  /// Local steps per round: τ in each participant's d_cmp·τ compute time.
  [[nodiscard]] virtual std::size_t local_steps() const = 0;

  /// Opens `round` over the selected `participants` (ascending device ids).
  /// May remove devices the server will not schedule; returns whether the
  /// round communicates. A silent round charges no uplink, retries or
  /// undelivered updates, and its participants' time is d_cmp·τ only.
  virtual bool open_round(std::size_t round,
                          std::vector<std::size_t>& participants) = 0;

  /// Local work for non-crashed `slot` (a policy may skip slots whose
  /// update cannot reach the server). Called concurrently across slots.
  virtual SlotWork solve(const RoundState& round, std::size_t slot,
                         opt::SolverWorkspace& ws) = 0;

  /// The server step, run serially after every solve() returned.
  virtual CombineResult combine(const RoundState& round) = 0;

  /// The model metrics are evaluated at; after the last round, the run's
  /// final parameters. Valid until the next call into the policy.
  virtual std::span<const double> model() = 0;
};

}  // namespace fedvr::fl
