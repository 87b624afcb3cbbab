#include "core/proxskip.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>

#include "tensor/vecops.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fedvr::core {

void ProxSkipVROptions::validate() const {
  FEDVR_CHECK_MSG(std::isfinite(step_size) && step_size > 0.0,
                  "step_size must be positive and finite, got " << step_size);
  FEDVR_CHECK_MSG(skip_prob > 0.0 && skip_prob <= 1.0,
                  "skip_prob must be in (0, 1], got " << skip_prob);
  FEDVR_CHECK_MSG(batch_size >= 1, "batch_size must be >= 1");
}

namespace {

// The x_n / h_n / anchor-gradient slabs, the shared coin, one SVRG step on
// every non-crashed device, and on heads the consensus + control-variate
// update. Evaluated at x̄ = Σ_n (D_n/D) x_n.
class ProxSkipVRPolicy final : public fl::RoundPolicy {
 public:
  explicit ProxSkipVRPolicy(const ProxSkipVROptions& options)
      : gamma_(options.step_size),
        p_(options.skip_prob),
        batch_size_(options.batch_size) {}

  std::size_t allocate(const fl::RunContext& run,
                       std::span<const double> w0) override {
    const std::size_t num_devices = run.fed.num_devices();
    FEDVR_CHECK_MSG(!run.options.devices_per_round ||
                        *run.options.devices_per_round == num_devices,
                    "ProxSkip-VR needs full participation: every device "
                    "holds a live iterate and control variate");
    FEDVR_CHECK_MSG(!run.options.faults.config().corruption_enabled(),
                    "ProxSkip-VR does not model update corruption (no "
                    "server-side defense layer); use the FedProxVR policy "
                    "for Byzantine experiments");
    run_.emplace(run);
    dim_ = w0.size();
    anchor_.assign(w0.begin(), w0.end());
    // Flat num_devices×dim slabs; device n's view is touched only from its
    // own parallel index.
    x_slab_.resize(num_devices * dim_);
    for (std::size_t n = 0; n < num_devices; ++n) {
      std::copy(anchor_.begin(), anchor_.end(), view(x_slab_, n).begin());
    }
    h_slab_.assign(num_devices * dim_, 0.0);
    anchor_grad_slab_.assign(num_devices * dim_, 0.0);
    uploads_slab_.assign(num_devices * dim_, 0.0);
    x_next_.assign(dim_, 0.0);
    xbar_.assign(dim_, 0.0);
    survivor_weights_.clear();
    survivor_weights_.reserve(num_devices);
    for_each_device([this](std::size_t n) { refresh_anchor_gradient(n); });
    return run.fed.total_train_size();
  }

  [[nodiscard]] std::size_t local_steps() const override { return 1; }

  bool open_round(std::size_t round,
                  std::vector<std::size_t>& /*participants*/) override {
    // The shared skip coin: one draw per iteration, device coordinate 0 of
    // the kComm stream (per-device comm streams use coordinates >= 1).
    util::Rng coin =
        util::fork(run_->options.seed, 0, round, util::stream::kComm);
    return coin.uniform() < p_;
  }

  fl::SlotWork solve(const fl::RoundState& r, std::size_t k,
                     opt::SolverWorkspace& ws) override {
    // Local step (x̂ = x − γ(g − h)) on a live device; a crashed device is
    // never scheduled, so its x_n and h_n stay put.
    const std::size_t n = r.participants[k];
    const std::uint64_t seed = run_->options.seed;
    data::Dataset scratch;
    const data::Dataset& ds = run_->fed.train(n, scratch);
    const std::size_t batch = std::min(batch_size_, ds.size());
    util::Rng rng = util::fork(seed, n + 1, r.round, util::stream::kSampling);
    std::vector<std::size_t>& idx = ws.batch;
    idx.resize(batch);
    for (auto& i : idx) i = rng.below(ds.size());

    // SVRG estimator: ∇f_B(x_n) − ∇f_B(anchor) + ∇F_n(anchor), with the
    // same minibatch at both points (eq. 8b).
    std::vector<double>& g = ws.grad_curr;
    g.resize(dim_);
    std::vector<double>& g_anchor = ws.grad_ref;
    g_anchor.resize(dim_);
    const std::span<double> xn = view(x_slab_, n);
    const std::span<const double> hn = view(h_slab_, n);
    const std::span<const double> agn = view(anchor_grad_slab_, n);
    run_->model.loss_and_gradient(xn, ds, idx, g);
    run_->model.loss_and_gradient(anchor_, ds, idx, g_anchor);
    // v = g − g_anchor + anchor_grad; x̂ = x − γ(v − h), written in place.
    for (std::size_t i = 0; i < dim_; ++i) {
      const double v = g[i] - g_anchor[i] + agn[i];
      xn[i] -= gamma_ * (v - hn[i]);
    }
    fl::SlotWork work{.inner_iterations = 1, .sample_grad_evals = 2 * batch};

    if (r.communicate && !r.events[k].uplink_failed) {
      // Proposal y_n = x̂_n − (γ/p) h_n, uploaded as a delta against the
      // shared anchor so sparsification/quantization compress the small
      // innovation, not the full model.
      const double gamma_over_p = gamma_ / p_;
      const std::span<double> up = view(uploads_slab_, n);
      for (std::size_t i = 0; i < dim_; ++i) {
        up[i] = xn[i] - gamma_over_p * hn[i] - anchor_[i];
      }
      util::Rng comm_rng =
          util::fork(seed, n + 1, r.round, util::stream::kComm);
      work.uplink_bytes = r.channel.uplink(n, up, comm_rng);
    }
    return work;
  }

  fl::CombineResult combine(const fl::RoundState& r) override {
    // Tails, or heads with zero survivors: a skip round — no broadcast, no
    // h update (a failed round's uplink attempts are still charged).
    const std::span<const std::size_t> survivors = r.schedule.survivors();
    if (!r.communicate || survivors.empty()) return {.broadcast = false};
    survivor_weights_.clear();
    for (const std::size_t k : survivors) {
      survivor_weights_.push_back(run_->fed.weight(r.participants[k]));
    }
    const double weight_sum = tensor::sum(survivor_weights_);
    // x_{t+1} = anchor + Σ survivors (w_n / Σw) (decoded delta_n),
    // ascending device order. ProxSkip keeps this sum rather than the
    // Aggregator seam, whose operation order differs.
    tensor::copy(anchor_, x_next_);
    for (std::size_t i = 0; i < survivors.size(); ++i) {
      tensor::axpy(survivor_weights_[i] / weight_sum,
                   view(uploads_slab_, r.participants[survivors[i]]),
                   x_next_);
    }
    // Reliable downlink: every device adopts the consensus and updates its
    // control variate against its own x̂ (a crashed device's x̂ is its
    // unchanged x_n).
    const double p_over_gamma = p_ / gamma_;
    for_each_device([this, p_over_gamma](std::size_t n) {
      const std::span<double> hn = view(h_slab_, n);
      const std::span<double> xn = view(x_slab_, n);
      for (std::size_t i = 0; i < dim_; ++i) {
        hn[i] += p_over_gamma * (x_next_[i] - xn[i]);
      }
      tensor::copy(x_next_, xn);
    });
    tensor::copy(x_next_, anchor_);
    // Refresh the SVRG anchor gradients at the new consensus.
    for_each_device([this](std::size_t n) { refresh_anchor_gradient(n); });
    return {.broadcast = true,
            .sample_grad_evals = run_->fed.total_train_size()};
  }

  std::span<const double> model() override {
    // x̄_t = Σ_n (D_n/D) x_n — the analysis-side average iterate; equals
    // the broadcast model at communication rounds. Serial ascending
    // accumulation.
    tensor::fill(xbar_, 0.0);
    for (std::size_t n = 0; n < run_->fed.num_devices(); ++n) {
      tensor::axpy(run_->fed.weight(n), view(x_slab_, n), xbar_);
    }
    return xbar_;
  }

 private:
  std::span<double> view(std::vector<double>& slab, std::size_t n) const {
    return std::span<double>(slab).subspan(n * dim_, dim_);
  }

  // Runs f(n) for every device n, device-parallel.
  void for_each_device(const std::function<void(std::size_t)>& f) const {
    util::ThreadPool::global().parallel_for(0, run_->fed.num_devices(), f);
  }

  void refresh_anchor_gradient(std::size_t n) {
    data::Dataset scratch;
    (void)run_->model.full_gradient(anchor_, run_->fed.train(n, scratch),
                                    view(anchor_grad_slab_, n));
  }

  double gamma_;
  double p_;
  std::size_t batch_size_;
  std::optional<fl::RunContext> run_;
  std::size_t dim_ = 0;
  std::vector<double> anchor_;            // last broadcast consensus model
  std::vector<double> x_slab_;            // local iterates x_n
  std::vector<double> h_slab_;            // control variates h_n
  std::vector<double> anchor_grad_slab_;  // ∇F_n(anchor), SVRG
  std::vector<double> uploads_slab_;      // decoded proposals − anchor
  std::vector<double> x_next_;
  std::vector<double> xbar_;
  std::vector<double> survivor_weights_;
};

}  // namespace

std::unique_ptr<fl::RoundPolicy> make_proxskip_vr_policy(
    const ProxSkipVROptions& options) {
  return std::make_unique<ProxSkipVRPolicy>(options);
}

fl::TrainerOptions trainer_options(const ProxSkipVROptions& options) {
  fl::TrainerOptions t;
  t.rounds = options.iterations;
  t.seed = options.seed;
  t.timing = options.timing;
  t.eval_every = options.eval_every;
  t.eval_initial = options.eval_initial;
  t.target_accuracy = options.target_accuracy;
  t.comm = options.comm;
  t.faults = options.faults;
  return t;
}

fl::TrainingTrace run_proxskip_vr(std::shared_ptr<const nn::Model> model,
                                  const data::FederatedDataset& fed,
                                  const ProxSkipVROptions& options,
                                  const std::string& name,
                                  std::optional<std::vector<double>> w0) {
  options.validate();
  const auto policy = make_proxskip_vr_policy(options);
  const fl::Trainer trainer(std::move(model), fed, trainer_options(options));
  return trainer.run(*policy, name, std::move(w0));
}

}  // namespace fedvr::core
