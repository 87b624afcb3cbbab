#include "fl/trainer.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "check/check.h"
#include "fl/event_engine.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "opt/workspace.h"
#include "tensor/vecops.h"
#include "util/error.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fedvr::fl {

namespace {

// The FedProxVR family (Algorithm 1 lines 2-12): every survivor runs its
// LocalSolver from w̄^(s-1), its update crosses the channel and may be
// corrupted, server defense screens it, and the Aggregator seam forms w̄^(s).
class LocalSolverPolicy final : public RoundPolicy {
 public:
  LocalSolverPolicy(
      std::function<const opt::LocalSolver&(std::size_t)> solver_for,
      std::size_t tau)
      : solver_for_(std::move(solver_for)), tau_(tau) {}

  std::size_t allocate(const RunContext& run,
                       std::span<const double> w0) override {
    run_.emplace(run);
    const TrainerOptions& o = run.options;
    w_global_.assign(w0.begin(), w0.end());
    w_prev_.resize(w0.size());
    // Null selects the weighted mean (bit-identical to the pre-seam trainer).
    aggregator_ =
        o.aggregator ? o.aggregator : make_aggregator(AggregatorKind::kMean);
    stale_replay_possible_ = o.faults.enabled() &&
                             o.faults.config().corruption_enabled() &&
                             o.faults.config().corrupt_stale_weight > 0.0;
    strikes_.clear();
    quarantined_until_.clear();
    replay_cache_.clear();
    return 0;
  }

  [[nodiscard]] std::size_t local_steps() const override { return tau_; }

  bool open_round(std::size_t round,
                  std::vector<std::size_t>& participants) override {
    // Quarantined devices are not scheduled at all: no broadcast, no
    // compute, no uplink. Filtered AFTER the selection draw so enabling
    // quarantine never perturbs the kSelection RNG stream.
    if (run_->options.defense.quarantine_enabled()) {
      std::erase_if(participants, [&](std::size_t device) {
        const auto it = quarantined_until_.find(device);
        if (it == quarantined_until_.end() || it->second < round) {
          return false;
        }
        OBS_SPAN("round.defense.quarantined");
        FEDVR_OBS_COUNT("fl.defense.quarantined_device_rounds", 1);
        return true;
      });
    }
    // Slot-keyed local models; inner capacities survive the resize.
    locals_.resize(participants.size());
    if (stale_replay_possible_) {
      // Serial registration: the parallel solve only writes each device's
      // own pre-existing entry (an empty one reads as "never uploaded").
      for (const std::size_t device : participants) {
        replay_cache_.try_emplace(device);
      }
    }
    return true;
  }

  SlotWork solve(const RoundState& r, std::size_t k,
                 opt::SolverWorkspace& ws) override {
    const TrainerOptions& o = run_->options;
    const std::size_t device = r.participants[k];
    const FaultEvent& event = r.events[k];
    const ParticipantOutcome& oc = r.schedule.outcome(k);
    // An update that cannot reach the server in time is not simulated: its
    // wasted compute shows in the fault counters, not in gradient counts.
    if (oc.undelivered || oc.missed_deadline) return {};
    std::vector<double>& local = locals_[k];
    if (event.corruption == CorruptionKind::kStaleReplay) {
      // The device free-rides: it re-sends whatever it uploaded last (or
      // echoes the broadcast model if it never uploaded) and runs nothing.
      const std::vector<double>& sent = replay_cache_.find(device)->second;
      const std::vector<double>& echo = sent.empty() ? w_global_ : sent;
      local.assign(echo.begin(), echo.end());
      return {};
    }
    util::Rng rng =
        util::fork(o.seed, device + 1, r.round, util::stream::kSampling);
    // On-demand shard materialization (data/federation.h).
    data::Dataset shard_scratch;
    const data::Dataset& shard = run_->fed.train(device, shard_scratch);
    const auto result =
        solver_for_(device).solve(shard, w_global_, rng, ws, local);
    SlotWork work{.inner_iterations = result.iterations_run,
                  .sample_grad_evals = result.sample_gradient_evals,
                  .theta = result.measured_theta};
    if (o.comm.transforms_uplink()) {
      // Uplink the update delta through the comm seam (error feedback,
      // compression, wire encode/decode); the server reconstructs
      // anchor + decoded delta.
      std::vector<double>& delta = ws.delta;
      delta.resize(w_global_.size());
      tensor::sub(local, w_global_, delta);
      util::Rng comm_rng =
          util::fork(o.seed, device + 1, r.round, util::stream::kComm);
      work.uplink_bytes = r.channel.uplink(device, delta, comm_rng);
      tensor::copy(w_global_, local);
      tensor::axpy(1.0, delta, local);
    }
    // Corruption mangles the transmitted bytes, so it applies after
    // compression. Deterministic per (seed, device, round): the kind was
    // fixed by the fault draw and the mangling reads only device-local
    // state, so corrupted traces stay pool-size-independent.
    switch (event.corruption) {
      case CorruptionKind::kNanInject: {
        // Sparse deterministic poison: coordinate (device + s) mod dim,
        // then every 64th after it, alternating NaN and +Inf.
        bool use_nan = true;
        for (std::size_t j = (device + r.round) % local.size();
             j < local.size(); j += 64) {
          local[j] = use_nan ? std::numeric_limits<double>::quiet_NaN()
                             : std::numeric_limits<double>::infinity();
          use_nan = !use_nan;
        }
        break;
      }
      case CorruptionKind::kSignFlip:
        // w̄ - δ, i.e. 2·w̄ - w_n: the update pushes the wrong way.
        tensor::scal(-1.0, local);
        tensor::axpy(2.0, w_global_, local);
        break;
      case CorruptionKind::kScale: {
        // w̄ + f·δ, i.e. f·w_n + (1-f)·w̄: a magnitude explosion (or
        // collapse) along the honest direction.
        const double f = o.faults.config().corrupt_scale_factor;
        tensor::scal(f, local);
        tensor::axpy(1.0 - f, w_global_, local);
        break;
      }
      case CorruptionKind::kNone:
      case CorruptionKind::kStaleReplay:
        break;  // replay returned above
    }
    if (stale_replay_possible_) {
      // Remember what this device sent (post-corruption bytes) for a later
      // kStaleReplay; only this device's pre-created entry is written.
      replay_cache_.find(device)->second.assign(local.begin(), local.end());
    }
    return work;
  }

  CombineResult combine(const RoundState& r) override {
    const DefenseOptions& defense = run_->options.defense;
    // Server-side defense, then line 12 through the Aggregator seam.
    // Validation is ALWAYS-ON (not FEDVR_CHECKS-gated): a server must
    // reject a poisoned update, not assert on it.
    tensor::copy(w_global_, w_prev_);
    accepted_.clear();
    CombineResult out;
    for (const std::size_t k : r.schedule.survivors()) {
      const std::size_t device = r.participants[k];
      FEDVR_CHECK_SHAPE(locals_[k].size(), w_global_.size());
      bool ok = !defense.reject_non_finite || check::all_finite(locals_[k]);
      if (ok && defense.update_norm_bound > 0.0) {
        const double bound = defense.update_norm_bound;
        // NaN distances compare false, so a non-finite update that slipped
        // past a disabled finiteness check still fails here.
        ok = tensor::squared_distance(locals_[k], w_prev_) <= bound * bound;
      }
      if (ok) {
        accepted_.push_back(k);
        continue;
      }
      ++out.rejected_updates;
      OBS_SPAN("round.defense.reject");
      FEDVR_OBS_COUNT("fl.defense.rejected_updates", 1);
      if (defense.quarantine_enabled() &&
          ++strikes_[device] >= defense.quarantine_strikes) {
        // Quarantine starts next round; the strike counter resets so a
        // repeat offender re-earns its next quarantine from zero.
        quarantined_until_[device] = r.round + defense.quarantine_rounds;
        strikes_[device] = 0;
        FEDVR_OBS_COUNT("fl.defense.quarantines", 1);
      }
    }
    // Aggregate the accepted updates, ascending device order. A round with
    // nothing accepted keeps w̄^(s-1) unchanged.
    if (!accepted_.empty()) {
      update_views_.clear();
      update_weights_.clear();
      for (const std::size_t k : accepted_) {
        update_views_.emplace_back(locals_[k]);
        update_weights_.push_back(run_->fed.weight(r.participants[k]));
      }
      aggregator_->aggregate(w_prev_, update_views_, update_weights_,
                             w_global_);
      // Belt and braces: with reject_non_finite off and a non-robust
      // aggregator, fail at the round that aggregated the poison.
      FEDVR_CHECK_FINITE(w_global_, "aggregated global model");
    }
    return out;
  }

  std::span<const double> model() override { return w_global_; }

 private:
  std::function<const opt::LocalSolver&(std::size_t)> solver_for_;
  std::size_t tau_;
  std::optional<RunContext> run_;
  std::shared_ptr<const Aggregator> aggregator_;
  bool stale_replay_possible_ = false;

  std::vector<double> w_global_;  // w̄^(s)
  std::vector<double> w_prev_;    // w̄^(s-1): aggregation anchor
  std::vector<std::vector<double>> locals_;  // slot-keyed: O(m·dim)
  std::vector<std::size_t> accepted_;
  std::vector<std::span<const double>> update_views_;
  std::vector<double> update_weights_;

  // Server-defense state keyed by device id: strike counts and the round
  // until which each device stays quarantined (inclusive). Mutated only
  // serially and never iterated (map order is not deterministic).
  std::unordered_map<std::size_t, std::size_t> strikes_;
  std::unordered_map<std::size_t, std::size_t> quarantined_until_;
  // The last update each device actually sent, for stale replays.
  std::unordered_map<std::size_t, std::vector<double>> replay_cache_;
};

}  // namespace

Trainer::Trainer(std::shared_ptr<const nn::Model> model,
                 const data::FederatedDataset& fed, TrainerOptions options)
    : Trainer(std::move(model),
              std::make_shared<const data::InMemoryFederation>(fed),
              std::move(options)) {}

Trainer::Trainer(std::shared_ptr<const nn::Model> model,
                 std::shared_ptr<const data::Federation> fed,
                 TrainerOptions options)
    : model_(std::move(model)), fed_(std::move(fed)), options_(options) {
  // All constructor validation is ALWAYS-ON (util/error.h macros, not the
  // FEDVR_CHECKS-gated layer): a Release/no-checks build must reject a
  // malformed configuration loudly, not train garbage. Tested under
  // check::set_enabled(false).
  FEDVR_CHECK(model_ != nullptr);
  FEDVR_CHECK(fed_ != nullptr);
  FEDVR_CHECK_MSG(fed_->num_devices() > 0, "need at least one device");
  FEDVR_CHECK_MSG(options_.rounds >= 1, "rounds must be >= 1, got 0");
  FEDVR_CHECK_MSG(options_.eval_every >= 1,
                  "eval_every must be >= 1 (0 would evaluate nothing and "
                  "divide by zero on the eval cadence)");
  if (options_.devices_per_round) {
    FEDVR_CHECK_MSG(*options_.devices_per_round >= 1 &&
                        *options_.devices_per_round <= fed_->num_devices(),
                    "devices_per_round must be in [1, "
                        << fed_->num_devices() << "], got "
                        << *options_.devices_per_round);
  }
  options_.defense.validate();
  options_.comm.validate();
  FEDVR_CHECK_MSG(options_.per_device_timing.empty() ||
                      options_.per_device_timing.size() == fed_->num_devices(),
                  "per_device_timing needs one entry per device");
  // Fail fast on malformed timing models (always-on validation — a release
  // build must reject d_com <= 0 here, not silently produce garbage time).
  options_.timing.validate();
  for (const auto& tm : options_.per_device_timing) tm.validate();
  if (options_.round_deadline) {
    FEDVR_CHECK_MSG(*options_.round_deadline > 0.0,
                    "round_deadline must be positive, got "
                        << *options_.round_deadline);
  }
  // Shard-size validation goes through device_train_size (O(1) per device,
  // no materialization): an empty shard would divide by zero in the local
  // solver's sampling and produce a zero aggregation weight.
  for (std::size_t n = 0; n < fed_->num_devices(); ++n) {
    FEDVR_CHECK_MSG(fed_->device_train_size(n) > 0,
                    "device " << n << " has no training data");
  }
}

// The eval path dominates wall time at eval_every=1, so all three metrics
// fan out across the pool. Determinism across pool sizes holds because
// every floating-point reduction happens serially in ascending device (or
// chunk) order over per-device partials — only the independent per-device
// work is scheduled onto threads. Global metrics are inherently O(fleet):
// sampled large-fleet runs keep eval_every high (or rely on param hashes)
// instead of paying a million-shard materialization per round.

double Trainer::global_loss(std::span<const double> w) const {
  const std::size_t num_devices = fed_->num_devices();
  std::vector<double> per_device(num_devices, 0.0);
  std::vector<double> weights(num_devices, 0.0);
  util::ThreadPool::global().parallel_for(0, num_devices, [&](std::size_t n) {
    data::Dataset scratch;
    per_device[n] = model_->full_loss(w, fed_->train(n, scratch));
    weights[n] = fed_->weight(n);
  });
  // Σ_n p_n F_n via the sanctioned serial ascending reduction — same
  // accumulation order as the historical inline loop, so traces stay
  // hash-identical.
  return tensor::weighted_sum(weights, per_device);
}

double Trainer::global_grad_norm_sq(std::span<const double> w) const {
  const std::size_t dim = model_->num_parameters();
  const std::size_t num_devices = fed_->num_devices();
  // Per-device gradients land in wave-local scratch (kWave * dim bounds the
  // footprint however many devices there are) and are folded into the total
  // serially, ascending by device index.
  constexpr std::size_t kWave = 4;
  const std::size_t wave = std::min(kWave, num_devices);
  std::vector<double> total(dim, 0.0);
  std::vector<double> scratch(wave * dim);
  for (std::size_t base = 0; base < num_devices; base += wave) {
    const std::size_t count = std::min(wave, num_devices - base);
    util::ThreadPool::global().parallel_for(0, count, [&](std::size_t i) {
      data::Dataset ds_scratch;
      (void)model_->full_gradient(
          w, fed_->train(base + i, ds_scratch),
          std::span<double>(scratch).subspan(i * dim, dim));
    });
    for (std::size_t i = 0; i < count; ++i) {
      tensor::axpy(fed_->weight(base + i),
                   std::span<const double>(scratch).subspan(i * dim, dim),
                   total);
    }
  }
  return tensor::nrm2_squared(total);
}

double Trainer::test_accuracy(std::span<const double> w) const {
  const data::Dataset& pooled = fed_->pooled_test();
  FEDVR_CHECK(!pooled.empty());
  const std::size_t size = pooled.size();
  // Fixed-size chunks (never pool-sized) keep the per-sample forward-pass
  // batching identical across pool sizes; the correct-count reduction is
  // integer arithmetic, so it is order-independent anyway.
  constexpr std::size_t kChunk = 256;
  const std::size_t nchunks = (size + kChunk - 1) / kChunk;
  const std::vector<std::size_t> indices = nn::all_indices(size);
  std::vector<std::size_t> predicted(size);
  util::ThreadPool::global().parallel_for(0, nchunks, [&](std::size_t c) {
    const std::size_t lo = c * kChunk;
    const std::size_t len = std::min(kChunk, size - lo);
    model_->predict(w, pooled,
                    std::span<const std::size_t>(indices).subspan(lo, len),
                    std::span<std::size_t>(predicted).subspan(lo, len));
  });
  std::size_t correct = 0;
  for (std::size_t i = 0; i < size; ++i) {
    if (predicted[i] == static_cast<std::size_t>(pooled.label(i))) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(size);
}

TrainingTrace Trainer::run(const opt::LocalSolver& solver,
                           const std::string& name,
                           std::optional<std::vector<double>> w0) const {
  LocalSolverPolicy policy(
      [&solver](std::size_t) -> const opt::LocalSolver& { return solver; },
      solver.options().tau);
  return run(policy, name, std::move(w0));
}

TrainingTrace Trainer::run(std::span<const opt::LocalSolver> solvers,
                           const std::string& name,
                           std::optional<std::vector<double>> w0) const {
  FEDVR_CHECK_MSG(solvers.size() == fed_->num_devices(),
                  "got " << solvers.size() << " solvers for "
                         << fed_->num_devices() << " devices");
  // Synchronous rounds wait for the slowest device.
  std::size_t max_tau = 0;
  for (const auto& s : solvers) {
    max_tau = std::max(max_tau, s.options().tau);
  }
  LocalSolverPolicy policy(
      [solvers](std::size_t device) -> const opt::LocalSolver& {
        return solvers[device];
      },
      max_tau);
  return run(policy, name, std::move(w0));
}

namespace {

// One run of the round engine: the per-run state and the six stages of a
// round (select → schedule → solve → combine → account → evaluate), called
// in that order by run(). Round state is keyed by participant SLOT (index
// into participants_), never by device id, and keeps its capacity across
// rounds: a steady-state round allocates nothing here and costs O(m·dim)
// at any fleet size.
class RoundEngine {
 public:
  RoundEngine(const Trainer& trainer, const nn::Model& model,
              const data::Federation& fed, RoundPolicy& policy)
      : trainer_(trainer),
        options_(trainer.options()),
        fed_(fed),
        policy_(policy),
        run_{model, fed, trainer.options()},
        obs_on_(options_.observability.enabled),
        channel_(options_.comm, fed.num_devices(), model.num_parameters()),
        // Collection is process-global while the run is active; the
        // previous state comes back when the engine goes (throws included).
        obs_was_on_(obs_on_ && obs::set_enabled(true)) {}
  RoundEngine(const RoundEngine&) = delete;
  ~RoundEngine() {
    if (obs_on_) obs::set_enabled(obs_was_on_);
  }

  TrainingTrace run(const std::string& name, std::span<const double> w0) {
    TrainingTrace trace;
    trace.algorithm = name;
    ledger_.sample_grad_evals = policy_.allocate(run_, w0);
    wall_.reset();

    // Early stop can trigger at round 0: a run whose starting model
    // already meets target_accuracy pays for no rounds at all.
    bool target_reached = false;
    const auto record = [&](std::size_t s) {
      const RoundMetrics& m = trace.rounds.emplace_back(evaluate(s));
      FEDVR_LOG_DEBUG << name << " round " << s << " loss " << m.train_loss
                      << " acc " << m.test_accuracy;
      target_reached = options_.target_accuracy &&
                       m.test_accuracy >= *options_.target_accuracy;
    };
    if (options_.eval_initial) record(0);

    for (std::size_t s = 1; !target_reached && s <= options_.rounds; ++s) {
      OBS_SPAN("round");
      const std::uint64_t start = stage_ns();
      {
        OBS_SPAN("round.broadcast");
        select(s);
        schedule(s);
      }
      const RoundState round{.round = s,
                             .communicate = communicate_,
                             .participants = participants_,
                             .events = events_,
                             .schedule = schedule_,
                             .channel = channel_};
      const std::uint64_t scheduled = stage_ns();
      {
        OBS_SPAN("round.local_solve");
        solve(round);
      }
      const std::uint64_t solved = stage_ns();
      {
        OBS_SPAN("round.aggregate");
        account(combine(round));
      }
      if (obs_on_) {
        measured_.broadcast += seconds(start, scheduled);
        measured_.local_solve += seconds(scheduled, solved);
        measured_.aggregate += seconds(solved, obs::now_ns());
        ++rounds_run_;
      }
      if (s % options_.eval_every == 0 ||
          (s == options_.rounds && options_.eval_final)) {
        record(s);
      }
    }
    const std::span<const double> w = policy_.model();
    trace.final_parameters.assign(w.begin(), w.end());
    trace.final_param_hash = check::hash_span(trace.final_parameters);
    if (obs_on_) {
      if (rounds_run_ > 0) {
        trace.measured_timing = estimate_timing(
            measured_, rounds_run_, solve_seconds_, solve_iterations_);
      }
      const ObservabilityOptions& o = options_.observability;
      if (!o.chrome_trace_path.empty()) {
        obs::write_chrome_trace_file(o.chrome_trace_path);
      }
      if (!o.metrics_jsonl_path.empty()) {
        std::ofstream out(o.metrics_jsonl_path);
        FEDVR_CHECK_MSG(out.good(), "cannot open '" << o.metrics_jsonl_path
                                                    << "' for writing");
        obs::Registry::global().snapshot().write_jsonl(out);
        obs::write_span_summary_jsonl(out);
      }
    }
    return trace;
  }

 private:
  // The measured-timing clock, read at stage boundaries only when
  // observability is on (0 otherwise, and then never used).
  [[nodiscard]] std::uint64_t stage_ns() const {
    return obs_on_ ? obs::now_ns() : 0;
  }
  static double seconds(std::uint64_t from, std::uint64_t to) {
    return static_cast<double>(to - from) / 1e9;
  }

  // Stage 1: this round's participants, ascending — all N, or m drawn by
  // Floyd's sampler in O(m). The policy then drops devices the server will
  // not schedule (after the draw: the kSelection stream never moves) and
  // flips its communication coin.
  void select(std::size_t s) {
    const std::size_t num_devices = fed_.num_devices();
    if (options_.devices_per_round &&
        *options_.devices_per_round < num_devices) {
      util::Rng select_rng =
          util::fork(options_.seed, 0, s, util::stream::kSelection);
      select_rng.sample_subset_sorted(
          num_devices, *options_.devices_per_round, participants_);
    } else {
      participants_.resize(num_devices);
      std::iota(participants_.begin(), participants_.end(), 0);
    }
    const std::size_t selected = participants_.size();
    communicate_ = policy_.open_round(s, participants_);
    ledger_.quarantined_device_rounds += selected - participants_.size();
  }

  // Stage 2: the round as a discrete-event schedule. Pass 1 fills it from
  // fault events, pure in (seed, device, round), and model-time completion
  // stamps (d_com·mult + d_cmp·τ·slowdown; the d_cmp term alone on a silent
  // round), so survivors and round time are known before any solver runs.
  void schedule(std::size_t s) {
    const bool faults_on = options_.faults.enabled();
    const double backoff = options_.faults.config().retry_backoff;
    const std::size_t tau = policy_.local_steps();
    const std::size_t n = participants_.size();
    events_.assign(n, FaultEvent{});
    std::vector<ParticipantOutcome>& outcomes = schedule_.reset(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t device = participants_[k];
      if (faults_on) {
        events_[k] = options_.faults.sample(options_.seed, device, s);
      }
      const FaultEvent& event = events_[k];
      ParticipantOutcome& oc = outcomes[k];
      oc.device = device;
      if (event.dropped) {
        oc.crashed = true;
        continue;
      }
      TimingModel timing = options_.per_device_timing.empty()
                               ? options_.timing
                               : options_.per_device_timing[device];
      if (!communicate_) {
        oc.completion_time =
            timing.d_cmp * event.slowdown * static_cast<double>(tau);
        continue;
      }
      if (options_.comm.byte_timing) {
        // d_com from serialized bytes, calibrated so a dense float64
        // exchange still costs exactly the analytic d_com.
        timing.d_com = channel_.link_round_time(timing);
      }
      oc.completion_time = timing.round_time(tau, event.slowdown,
                                             event.com_multiplier(backoff));
      oc.undelivered = event.uplink_failed;
    }
    schedule_.build(options_.round_deadline);

    // Pass 2: fault accounting + obs spans, ascending slot order. Retries
    // and undelivered updates exist only on rounds that communicate.
    live_.clear();
    for (std::size_t k = 0; k < n; ++k) {
      const FaultEvent& event = events_[k];
      const ParticipantOutcome& oc = schedule_.outcome(k);
      if (oc.crashed) {  // detected at once: holds up nothing
        ++ledger_.dropped_devices;
        OBS_SPAN("round.fault.dropout");
        FEDVR_OBS_COUNT("fl.faults.dropout", 1);
        continue;
      }
      live_.push_back(k);
      if (event.straggler) {
        ++ledger_.straggler_devices;
        OBS_SPAN("round.fault.straggler");
        FEDVR_OBS_COUNT("fl.faults.straggler", 1);
      }
      if (communicate_ && event.uplink_retries > 0) {
        ledger_.uplink_retries += event.uplink_retries;
        OBS_SPAN("round.fault.uplink_retry");
        FEDVR_OBS_COUNT("fl.faults.uplink_retries", event.uplink_retries);
      }
      if (oc.missed_deadline) {
        ++ledger_.deadline_misses;
        OBS_SPAN("round.fault.deadline_miss");
        FEDVR_OBS_COUNT("fl.faults.deadline_misses", 1);
      }
      if (oc.undelivered) {
        OBS_SPAN("round.fault.uplink_failed");
        FEDVR_OBS_COUNT("fl.faults.uplink_failed", 1);
      }
      if (oc.missed_deadline || oc.undelivered) {
        // Computed and transmitted, never aggregated: undelivered, not
        // "dropped" — dropped counts crashes only (CSV schema v2).
        ++ledger_.undelivered_updates;
      } else if (event.corrupted()) {
        // Counted per delivered update: how many corrupted updates the
        // server actually had to survive.
        ++ledger_.corrupted_updates;
        OBS_SPAN("round.fault.corrupt");
        FEDVR_OBS_COUNT("fl.faults.corrupted_updates", 1);
      }
    }
  }

  // Stage 3: the policy's local work, device-parallel (Algorithm 1 lines
  // 2-11). Channel state the parallel pass may only read — error-feedback
  // residual slots of this round's uplinkers — is registered serially
  // first.
  void solve(const RoundState& round) {
    work_.assign(participants_.size(), SlotWork{});
    if (communicate_ && options_.comm.error_feedback) {
      uplinkers_.clear();
      for (const std::size_t k : schedule_.survivors()) {
        uplinkers_.push_back(participants_[k]);
      }
      channel_.prepare(uplinkers_);
    }
    if (obs_on_) slot_seconds_.assign(participants_.size(), 0.0);
    auto run_slot = [&](std::size_t i) {
      const std::size_t k = live_[i];
      OBS_SPAN("device.solve");
      const std::uint64_t start = stage_ns();
      // Pooled solver workspaces: allocation-free once the pool is warm.
      const opt::WorkspacePool::Lease lease(ws_pool_);
      work_[k] = policy_.solve(round, k, *lease);
      if (obs_on_ && work_[k].inner_iterations > 0) {
        slot_seconds_[k] = seconds(start, obs::now_ns());
      }
    };
    util::ThreadPool::global().parallel_for(0, live_.size(), run_slot);
    if (obs_on_) {
      // d_cmp's sums: a slot that ran no solver adds 0 to both.
      solve_seconds_ += tensor::sum(slot_seconds_);
      for (const std::size_t k : live_) {
        solve_iterations_ += work_[k].inner_iterations;
      }
    }
  }

  // Stage 4: the policy's server step.
  CombineResult combine(const RoundState& round) {
    const CombineResult result = policy_.combine(round);
    ledger_.rejected_updates += result.rejected_updates;
    ledger_.sample_grad_evals += result.sample_grad_evals;
    return result;
  }

  // Stage 5: the round's cost. Model time runs until the server's event
  // queue drains (the last non-crashed arrival, capped at the deadline).
  // Bytes are serialized message sizes: a dense broadcast per scheduled
  // participant, and an uplink per transmission in the arrival queue (lost
  // attempts and late arrivals crossed the wire too; payloads never
  // materialized are charged the a-priori size). Integer sums.
  void account(const CombineResult& combined) {
    ledger_.model_time += schedule_.realized_round_time();
    if (combined.broadcast) {
      ledger_.downlink_bytes +=
          participants_.size() * channel_.downlink_wire_bytes();
    }
    if (communicate_) {
      const std::size_t apriori = channel_.uplink_wire_bytes();
      for (const ArrivalEvent& ev : schedule_.arrivals()) {
        const std::size_t realized = work_[ev.slot].uplink_bytes;
        ledger_.uplink_bytes += events_[ev.slot].uplink_attempts() *
                                (realized > 0 ? realized : apriori);
      }
    }
    for (const std::size_t k : live_) {
      ledger_.sample_grad_evals += work_[k].sample_grad_evals;
    }
  }

  // Stage 6: metrics at the policy's model, plus the cumulative ledgers.
  RoundMetrics evaluate(std::size_t s) {
    RoundMetrics m = ledger_;
    m.round = s;
    const std::uint64_t start = stage_ns();
    {
      OBS_SPAN("round.eval");
      const std::span<const double> w = policy_.model();
      m.train_loss = trainer_.global_loss(w);
      m.test_accuracy = trainer_.test_accuracy(w);
      if (options_.eval_grad_norm) {
        m.grad_norm_sq = trainer_.global_grad_norm_sq(w);
      }
      // Determinism audit: equal seeds must give equal hashes every row.
      m.param_hash = check::hash_span(w);
    }
    if (obs_on_) {
      measured_.eval += seconds(start, obs::now_ns());
      m.measured = measured_;
    }
    m.wall_seconds = wall_.seconds();
    m.comm_bytes = m.uplink_bytes + m.downlink_bytes;
    m.realized_round_time = schedule_.realized_round_time();
    if (options_.collect_theta) {
      double sum = 0.0;
      std::size_t count = 0;
      for (const std::size_t k : schedule_.survivors()) {
        if (work_[k].theta >= 0.0) {
          // Predicate-filtered diagnostic mean, ascending survivor order;
          // trace-only, never fed back into the model.
          // lint:allow(fp-reduction-in-seam) trace-only diagnostic mean
          sum += work_[k].theta;
          ++count;
        }
      }
      m.mean_local_theta = count > 0 ? sum / static_cast<double>(count) : -1.0;
    }
    return m;
  }

  const Trainer& trainer_;
  const TrainerOptions& options_;
  const data::Federation& fed_;
  RoundPolicy& policy_;
  const RunContext run_;
  const bool obs_on_;
  // The device<->server link (src/comm): error-feedback residuals keyed by
  // device, bytes measured from serialized comm::Message sizes.
  comm::Channel channel_;
  const bool obs_was_on_;
  opt::WorkspacePool ws_pool_;
  util::Stopwatch wall_;
  // The cumulative ledgers (model time, bytes, gradient evaluations, fault
  // and defense counters) in trace schema; evaluate() copies them out.
  RoundMetrics ledger_;
  // Measured timings (observability on): cumulative stage seconds, the
  // rounds they cover and d_cmp's sums. O(1) in the number of rounds.
  PhaseTimings measured_;
  std::size_t rounds_run_ = 0;
  double solve_seconds_ = 0.0;
  std::size_t solve_iterations_ = 0;

  bool communicate_ = true;
  std::vector<std::size_t> participants_;  // slot -> device, ascending
  std::vector<FaultEvent> events_;         // slot-keyed
  RoundSchedule schedule_;
  std::vector<std::size_t> live_;          // non-crashed slots, ascending
  std::vector<SlotWork> work_;             // slot-keyed
  std::vector<double> slot_seconds_;       // slot-keyed solve wall time
  std::vector<std::size_t> uplinkers_;     // devices passed to prepare()
};

}  // namespace

TrainingTrace Trainer::run(RoundPolicy& policy, const std::string& name,
                           std::optional<std::vector<double>> w0) const {
  const std::size_t dim = model_->num_parameters();
  std::vector<double> w;
  if (w0.has_value()) {
    FEDVR_CHECK_MSG(w0->size() == dim, "w0 has " << w0->size()
                                                 << " parameters, model needs "
                                                 << dim);
    w = std::move(*w0);
  } else {
    util::Rng init_rng = util::fork(options_.seed, 0, 0, util::stream::kInit);
    w = model_->initial_parameters(init_rng);
  }
  RoundEngine engine(*this, *model_, *fed_, policy);
  return engine.run(name, w);
}

}  // namespace fedvr::fl
