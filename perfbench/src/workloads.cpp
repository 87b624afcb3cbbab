#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "comm/message.h"
#include "core/algorithms.h"
#include "data/image_datasets.h"
#include "data/synthetic.h"
#include "fl/hierarchy.h"
#include "inputs.h"
#include "nn/models.h"
#include "theory/smoothness.h"
#include "util/rng.h"

namespace perfbench {

namespace fd = fedvr::data;
namespace ffl = fedvr::fl;
namespace fnn = fedvr::nn;
namespace fu = fedvr::util;

namespace {

// ---- Workload definitions -------------------------------------------------
// Full sizes are what the benchmark measures; small sizes keep every code
// path of a workload (same engine, seams, channel and faults) for the
// self-check.

// Fig. 3: the paper's two-layer CNN at 28x28 over ten power-law devices
// holding two digit classes each. Channels and shard sizes are scaled so a
// run is seconds, not minutes; the architecture and code paths are the
// paper's.
struct CnnSizes {
  std::size_t side, conv1, conv2, pool, min_samples, max_samples, batch, tau,
      rounds;
};
constexpr CnnSizes kCnnFull{28, 8, 16, 1000, 60, 300, 16, 10, 3};
// Shard sizes (and which pool slots each device takes) come from this fixed
// seed: with ten devices on four threads, the seed's power-law draw would
// otherwise decide how unevenly the threads are loaded, and train_s would
// vary ~15% from seed to seed. Every seed now loads them the same uneven
// way; --seed still draws the images, the model and the training.
constexpr std::uint64_t kCnnShardProfileSeed = 1;
constexpr CnnSizes kCnnSmall{12, 4, 8, 300, 20, 60, 8, 5, 4};

// The million-device path: 10^6 virtual Synthetic(1,1) devices, 256 sampled
// per round, FedProxVR(SARAH), compressed uplink with faults, tree
// aggregation.
struct FleetSizes {
  std::size_t devices, per_round, rounds, tau, batch, min_samples,
      max_samples;
};
constexpr FleetSizes kFleetFull{1000000, 256, 6, 10, 16, 37, 3277};
constexpr FleetSizes kFleetSmall{10000, 32, 3, 3, 8, 37, 400};

// ProxSkip-VR over 100 in-memory Synthetic(1,1) devices.
struct ProxSkipSizes {
  std::size_t devices, iterations, batch, eval_every;
};
constexpr ProxSkipSizes kProxSkipFull{100, 500, 32, 100};
constexpr ProxSkipSizes kProxSkipSmall{12, 40, 4, 20};

constexpr double kSkipProb = 0.2;
constexpr double kTopKFraction = 0.1;
constexpr std::size_t kTreeFanout = 16;
// The pooled-test check on the virtual fleet runs on inputs that do not
// depend on the benchmark seed (see the known fault in the README).
constexpr std::uint64_t kFleetReferenceSeed = 1;
constexpr std::size_t kFleetLossSample = 64;

/// L at a seeded initialization, from power iteration on at most
/// `max_samples` pooled samples (the CNN's full-batch gradients are the
/// costliest part of its set-up, so it subsamples harder).
double smoothness_on(const fnn::Model& model, const fd::Dataset& pooled,
                     std::uint64_t seed, std::size_t max_samples = 512) {
  fu::Rng rng(seed);
  const auto w = model.initial_parameters(rng);
  return fedvr::theory::estimate_smoothness(
      model, pooled, w, rng, {.max_samples = max_samples});
}

fd::Dataset pool_train(const fd::FederatedDataset& fed) {
  fd::Dataset pooled(fed.train[0].sample_shape(), 0,
                     fed.train[0].num_classes());
  for (const auto& shard : fed.train) pooled.append(shard);
  return pooled;
}

fedvr::comm::ChannelOptions compressed_uplink(bool byte_timing) {
  fedvr::comm::ChannelOptions comm;
  comm.compressor =
      std::make_shared<fedvr::comm::TopKCompressor>(kTopKFraction);
  comm.error_feedback = true;
  comm.uplink_dtype = fedvr::comm::DType::kInt8Block;
  comm.byte_timing = byte_timing;
  return comm;
}

Inputs build_cnn(std::uint64_t seed, bool small) {
  const CnnSizes& z = small ? kCnnSmall : kCnnFull;
  Inputs in;
  in.engine = Engine::kTrainer;
  fd::ImageDatasetConfig cfg;
  cfg.family = fd::ImageFamily::kDigits;
  // No IDX files ship with the repository; this path never exists, so the
  // procedural digit generator is always used.
  cfg.data_dir = ".bench_build/no-idx-files";
  cfg.side = z.side;
  cfg.pool_size = z.pool;
  cfg.shard.num_devices = 10;
  cfg.shard.min_samples = z.min_samples;
  cfg.shard.max_samples = z.max_samples;
  cfg.shard.seed = kCnnShardProfileSeed;
  cfg.seed = seed;
  auto images = fd::make_federated_images(cfg);
  if (images.used_real_files) {
    throw std::runtime_error("cnn-fig3 must use procedural digits");
  }
  auto dataset = std::make_shared<fd::FederatedDataset>(std::move(images.fed));
  fnn::CnnConfig cnn;
  cnn.side = z.side;
  cnn.conv1_channels = z.conv1;
  cnn.conv2_channels = z.conv2;
  in.model = fnn::make_two_layer_cnn(cnn);
  const double smoothness =
      smoothness_on(*in.model, pool_train(*dataset), seed, 64);
  fedvr::core::HyperParams hp;
  hp.beta = 2.0;
  hp.smoothness_L = smoothness;
  hp.tau = z.tau;
  hp.mu = 0.01;
  hp.batch_size = z.batch;
  in.solver = fedvr::core::fedproxvr_svrg(hp).options;
  in.trainer.rounds = z.rounds;
  in.trainer.seed = seed;
  in.trainer.eval_every = 1;
  in.devices_per_round = dataset->num_devices();
  in.fed = std::make_shared<fd::InMemoryFederation>(*dataset);
  in.dataset = std::move(dataset);
  const std::size_t half = z.side / 2;
  in.gemm_m = z.conv2;
  in.gemm_n = half * half;
  in.gemm_k = z.conv1 * cnn.kernel * cnn.kernel;
  return in;
}

fd::SyntheticConfig fleet_config(std::uint64_t seed, const FleetSizes& z) {
  fd::SyntheticConfig cfg;
  cfg.num_devices = z.devices;
  cfg.min_samples = z.min_samples;
  cfg.max_samples = z.max_samples;
  cfg.seed = seed;
  return cfg;
}

Inputs build_fleet(std::uint64_t seed, bool small) {
  const FleetSizes& z = small ? kFleetSmall : kFleetFull;
  Inputs in;
  in.engine = Engine::kTrainer;
  const fd::SyntheticConfig cfg = fleet_config(seed, z);
  auto fleet = std::make_shared<fd::VirtualFederation>(
      fd::make_synthetic_virtual(cfg));
  in.model = fnn::make_logistic_regression(cfg.dim, cfg.num_classes);
  // L from a seed-drawn handful of fleet devices: the whole fleet is never
  // materialized.
  fd::Dataset pooled(fleet->pooled_test().sample_shape(), 0, cfg.num_classes);
  {
    fu::Rng pick(seed ^ 0x5A17ULL);
    std::vector<std::size_t> devices;
    pick.sample_subset_sorted(z.devices, 8, devices);
    fd::Dataset scratch;
    for (const std::size_t n : devices) pooled.append(fleet->train(n, scratch));
  }
  const double smoothness = smoothness_on(*in.model, pooled, seed);
  fedvr::core::HyperParams hp;
  hp.beta = 5.0;
  hp.smoothness_L = smoothness;
  hp.tau = z.tau;
  hp.mu = 0.1;
  hp.batch_size = z.batch;
  in.solver = fedvr::core::fedproxvr_sarah(hp).options;
  in.trainer.rounds = z.rounds;
  in.trainer.seed = seed;
  in.trainer.devices_per_round = z.per_round;
  // Global metrics are O(fleet): no in-loop eval, no final eval row.
  in.trainer.eval_every = z.rounds + 1;
  in.trainer.eval_final = false;
  in.trainer.comm = compressed_uplink(/*byte_timing=*/true);
  ffl::FaultModelConfig faults;
  faults.dropout_prob = 0.1;
  faults.straggler_prob = 0.1;
  faults.uplink_loss_prob = 0.1;
  in.trainer.faults = ffl::FaultModel(faults);
  in.trainer.aggregator =
      ffl::make_tree_aggregator({.fanout = kTreeFanout});
  in.devices_per_round = z.per_round;
  in.fed = std::move(fleet);
  // Dense forward over a full-gradient chunk: rows x classes x features.
  in.gemm_m = 64;
  in.gemm_n = cfg.num_classes;
  in.gemm_k = cfg.dim;
  in.gemm_b_transposed = true;
  return in;
}

Inputs build_proxskip(std::uint64_t seed, bool small) {
  const ProxSkipSizes& z = small ? kProxSkipSmall : kProxSkipFull;
  Inputs in;
  in.engine = Engine::kProxSkip;
  fd::SyntheticConfig cfg;
  cfg.num_devices = z.devices;
  cfg.min_samples = 40;
  cfg.max_samples = 400;
  cfg.seed = seed;
  auto dataset =
      std::make_shared<fd::FederatedDataset>(fd::make_synthetic(cfg));
  in.model = fnn::make_logistic_regression(cfg.dim, cfg.num_classes);
  const double smoothness =
      smoothness_on(*in.model, pool_train(*dataset), seed);
  fedvr::core::HyperParams hp;
  hp.beta = 5.0;
  hp.smoothness_L = smoothness;
  in.proxskip.iterations = z.iterations;
  in.proxskip.seed = seed;
  in.proxskip.step_size = hp.eta();
  in.proxskip.skip_prob = kSkipProb;
  in.proxskip.batch_size = z.batch;
  in.proxskip.eval_every = z.eval_every;
  in.proxskip.comm = compressed_uplink(/*byte_timing=*/false);
  // ProxSkip-VR's local step is one SVRG step (tau = 1) on a minibatch.
  hp.tau = 1;
  hp.batch_size = z.batch;
  in.solver = fedvr::core::fedproxvr_svrg(hp).options;
  in.devices_per_round = z.devices;
  in.fed = std::make_shared<fd::InMemoryFederation>(*dataset);
  in.dataset = std::move(dataset);
  in.gemm_m = z.batch;
  in.gemm_n = cfg.num_classes;
  in.gemm_k = cfg.dim;
  in.gemm_b_transposed = true;
  return in;
}

// ---- Checks --------------------------------------------------------------

Check make_check(std::string name, bool ok, const std::ostringstream& detail) {
  return {std::move(name), ok, detail.str()};
}

bool relatively_close(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(std::abs(a), std::abs(b));
}

/// F̄(w) = Σ_n (D_n/D) F_n(w), serially from Model::loss per shard.
double serial_global_loss(const fnn::Model& model,
                          const fd::FederatedDataset& fed,
                          std::span<const double> w) {
  const double total = static_cast<double>(fed.total_train_size());
  double sum = 0.0;
  for (const auto& shard : fed.train) {
    const auto idx = fnn::all_indices(shard.size());
    sum += static_cast<double>(shard.size()) / total *
           model.loss(w, shard, idx);
  }
  return sum;
}

/// Samples of `shard` that w classifies correctly.
std::size_t count_correct(const fnn::Model& model, std::span<const double> w,
                          const fd::Dataset& shard) {
  const auto idx = fnn::all_indices(shard.size());
  std::vector<std::size_t> predicted(shard.size());
  model.predict(w, shard, idx, predicted);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < shard.size(); ++i) {
    correct += predicted[i] == static_cast<std::size_t>(shard.label(i));
  }
  return correct;
}

/// Accuracy over the union of the devices' test shards, serially.
double pooled_accuracy(const fnn::Model& model, const fd::FederatedDataset& fed,
                       std::span<const double> w) {
  std::size_t correct = 0, total = 0;
  for (const auto& shard : fed.test) {
    correct += count_correct(model, w, shard);
    total += shard.size();
  }
  return static_cast<double>(correct) / static_cast<double>(total);
}

Check loss_check(const Inputs& in, const ffl::TrainingTrace& trace,
                 std::span<const double> w0) {
  const double start = serial_global_loss(*in.model, *in.dataset, w0);
  const double end =
      serial_global_loss(*in.model, *in.dataset, trace.final_parameters);
  const double reported = trace.back().train_loss;
  std::ostringstream d;
  d << "F(w0)=" << start << " F(wT)=" << end << " trace=" << reported;
  return make_check("global_loss_recomputed",
                    relatively_close(end, reported, 1e-9) && end < start, d);
}

Check accuracy_check(const Inputs& in, const ffl::TrainingTrace& trace) {
  const double acc =
      pooled_accuracy(*in.model, *in.dataset, trace.final_parameters);
  const double chance =
      1.0 / static_cast<double>(in.dataset->train[0].num_classes());
  std::ostringstream d;
  d << "accuracy=" << acc << " chance=" << chance;
  return make_check("accuracy_above_chance", acc > chance, d);
}

/// comm::Message size from its documented layout: 24-byte header, u32
/// indices when sparse, then the values. int8 values travel in ggml-style
/// blocks: one f32 scale and 32 int8 slots, the last block zero-padded.
std::size_t layout_bytes(fedvr::comm::DType dtype, std::size_t count,
                         bool sparse) {
  std::size_t payload = 0;
  switch (dtype) {
    case fedvr::comm::DType::kFloat64: payload = 8 * count; break;
    case fedvr::comm::DType::kFloat32: payload = 4 * count; break;
    case fedvr::comm::DType::kInt8Block:
      payload = (4 + 32) * ((count + 31) / 32);
      break;
  }
  return 24 + (sparse ? 4 * count : 0) + payload;
}

/// Algorithm 1's per-sample gradient count for one activated shard: the
/// anchor full gradient plus two minibatch gradients per inner step.
std::uint64_t alg1_grad_samples(const fedvr::opt::LocalSolverOptions& solver,
                                std::size_t shard_size) {
  return shard_size + 2 * solver.tau * std::min(solver.batch_size, shard_size);
}

std::vector<Span> layer_spans(const std::vector<Span>& spans, Layer layer) {
  std::vector<Span> out;
  for (const Span& s : spans) {
    if (s.layer == layer) out.push_back(s);
  }
  return out;
}

// ---- Per-workload check lists ---------------------------------------------
// Which checks need the traced run's spans is fixed per workload, so every
// benchmark repetition performs the same operations.

void cnn_checks(const Inputs& in, const ffl::TrainingTrace& trace,
                std::span<const double> w0, const std::vector<Span>* spans,
                RunResult& r) {
  const std::size_t dim = in.model->num_parameters();
  const std::size_t devices = in.dataset->num_devices();
  const std::size_t rounds = in.trainer.rounds;
  if (spans == nullptr) {
    r.checks.push_back(loss_check(in, trace, w0));
    r.checks.push_back(accuracy_check(in, trace));
    const std::size_t frame =
        layout_bytes(fedvr::comm::DType::kFloat64, dim, false);
    const std::size_t expected = rounds * devices * frame;
    std::ostringstream d;
    d << "uplink=" << trace.back().uplink_bytes
      << " downlink=" << trace.back().downlink_bytes
      << " expected=" << expected;
    r.checks.push_back(make_check("wire_bytes",
                                  trace.back().uplink_bytes == expected &&
                                      trace.back().downlink_bytes == expected,
                                  d));
    return;
  }
  std::uint64_t expected = 0;
  for (const auto& shard : in.dataset->train) {
    expected += rounds * alg1_grad_samples(in.solver, shard.size());
  }
  const std::uint64_t counted =
      r.layers[static_cast<std::size_t>(Layer::kNnGrad)].items;
  std::ostringstream d;
  d << "nn.grad_samples=" << counted << " algorithm1=" << expected;
  r.checks.push_back(make_check("grad_samples_alg1", counted == expected, d));
}

struct SampleScore {
  double loss = 0.0;      // D_n-weighted mean loss
  double accuracy = 0.0;  // over all samples of the sampled shards
};

/// Scores w on a fixed, seed-drawn sample of fleet devices.
SampleScore fleet_sample_score(const Inputs& in, std::span<const double> w) {
  fu::Rng pick(in.seed ^ 0xF1EE7ULL);
  std::vector<std::size_t> devices;
  pick.sample_subset_sorted(in.fed->num_devices(), kFleetLossSample, devices);
  double weighted = 0.0;
  std::size_t total = 0, correct = 0;
  fd::Dataset scratch;
  for (const std::size_t n : devices) {
    const fd::Dataset& shard = in.fed->train(n, scratch);
    weighted +=
        static_cast<double>(shard.size()) * in.model->full_loss(w, shard);
    correct += count_correct(*in.model, w, shard);
    total += shard.size();
  }
  return {weighted / static_cast<double>(total),
          static_cast<double>(correct) / static_cast<double>(total)};
}

void fleet_checks(const Inputs& in, const ffl::TrainingTrace& trace,
                  std::span<const double> w0, const std::vector<Span>* spans,
                  bool small, RunResult& r) {
  if (spans == nullptr) {
    const double start = fleet_sample_score(in, w0).loss;
    const double end = fleet_sample_score(in, trace.final_parameters).loss;
    std::ostringstream d;
    d << "sample of " << kFleetLossSample << " devices: F(w0)=" << start
      << " F(wT)=" << end;
    r.checks.push_back(make_check("fleet_sample_loss_falls", end < start, d));
    return;
  }
  // Activated shards, recomputed from the sampling and fault draws: every
  // sampled participant that neither crashed nor lost its uplink solves.
  const std::size_t n = in.fed->num_devices();
  std::uint64_t expected = 0;
  std::uint64_t activated = 0;
  std::vector<std::size_t> participants;
  for (std::size_t s = 1; s <= in.trainer.rounds; ++s) {
    fu::Rng select = fu::fork(in.trainer.seed, 0, s, fu::stream::kSelection);
    select.sample_subset_sorted(n, in.devices_per_round, participants);
    for (const std::size_t device : participants) {
      const ffl::FaultEvent e = in.trainer.faults.sample(in.trainer.seed,
                                                         device, s);
      if (!e.delivers_update()) continue;
      expected +=
          alg1_grad_samples(in.solver, in.fed->device_train_size(device));
      ++activated;
    }
  }
  const std::uint64_t counted =
      r.layers[static_cast<std::size_t>(Layer::kNnGrad)].items;
  {
    std::ostringstream d;
    d << "activated=" << activated << " nn.grad_samples=" << counted
      << " algorithm1=" << expected;
    r.checks.push_back(make_check("grad_samples_alg1", counted == expected, d));
  }
  // Every delivered uplink's message size follows the layout, and the
  // downlink broadcast is one dense f64 frame.
  {
    const std::size_t dim = in.model->num_parameters();
    const auto& comm = in.comm();
    fedvr::comm::Channel channel(comm, 1, dim);
    fu::Rng rng(in.seed);
    std::vector<double> delta(dim);
    for (double& v : delta) v = rng.normal(0.0, 1.0);
    // The first uplink of a device carries no error-feedback residual, so
    // its payload is exactly the compressor's output.
    std::vector<double> compressed = delta;
    fu::Rng compress_rng = rng;
    comm.compressor->compress(compressed, compress_rng);
    const auto nonzeros = static_cast<std::size_t>(
        std::count_if(compressed.begin(), compressed.end(),
                      [](double v) { return v != 0.0; }));
    const std::size_t sent = channel.uplink(0, delta, rng);
    // One compress call per activated shard, none keeping more than the
    // compressor's budget.
    const auto compress = layer_spans(*spans, Layer::kCommCompress);
    const std::size_t kept = comm.compressor->kept(dim);
    const bool within_kept =
        std::all_of(compress.begin(), compress.end(),
                    [kept](const Span& s) { return s.items <= kept; });
    const std::size_t up = layout_bytes(comm.uplink_dtype, nonzeros, true);
    const std::size_t down = layout_bytes(comm.downlink_dtype, dim, false);
    std::ostringstream d;
    d << "uplink=" << sent << " layout=" << up
      << " downlink=" << channel.downlink_wire_bytes() << " layout=" << down
      << " compress_calls=" << compress.size() << " activated=" << activated;
    r.checks.push_back(make_check(
        "wire_bytes",
        sent == up && channel.downlink_wire_bytes() == down && within_kept &&
            compress.size() == activated,
        d));
  }
  // Known fault: the "pooled" test set is one reserved device's data, so on
  // a non-IID fleet the score describes that device alone. Run on fixed
  // inputs so the check fails the same way on every seed.
  {
    const Inputs ref =
        build_inputs("fleet-sampled", kFleetReferenceSeed, small);
    const ffl::Trainer trainer(ref.model, ref.fed, ref.trainer);
    const fedvr::opt::LocalSolver solver(ref.model, ref.solver);
    const auto ref_trace = trainer.run(solver, "reference");
    const double acc = trainer.test_accuracy(ref_trace.final_parameters);
    const double chance =
        1.0 / static_cast<double>(ref.fed->pooled_test().num_classes());
    std::ostringstream d;
    d << "reference seed " << kFleetReferenceSeed
      << ": pooled-test accuracy=" << acc << " chance=" << chance
      << " (fleet-sample accuracy="
      << fleet_sample_score(ref, ref_trace.final_parameters).accuracy << ")";
    r.checks.push_back(make_check("pooled_test_above_chance", acc > chance, d));
  }
}

void proxskip_checks(const Inputs& in, const ffl::TrainingTrace& trace,
                     std::span<const double> w0, const std::vector<Span>* spans,
                     RunResult& r) {
  if (spans == nullptr) {
    r.checks.push_back(loss_check(in, trace, w0));
    r.checks.push_back(accuracy_check(in, trace));
    return;
  }
  const std::size_t dim = in.model->num_parameters();
  const std::size_t devices = in.dataset->num_devices();
  const auto& comm = in.comm();
  const std::size_t frame = layout_bytes(comm.downlink_dtype, dim, false);
  const auto compress = layer_spans(*spans, Layer::kCommCompress);
  std::size_t uplink = 0;
  for (const Span& s : compress) {
    uplink += layout_bytes(comm.uplink_dtype, s.items, true);
  }
  const std::size_t downlink = trace.back().downlink_bytes;
  const std::size_t comm_iters = downlink / (devices * frame);
  {
    std::ostringstream d;
    d << "uplink=" << trace.back().uplink_bytes << " layout=" << uplink
      << " downlink=" << downlink << " = " << comm_iters << " x " << devices
      << " x " << frame;
    r.checks.push_back(make_check(
        "wire_bytes",
        trace.back().uplink_bytes == uplink &&
            downlink == comm_iters * devices * frame &&
            compress.size() == comm_iters * devices,
        d));
  }
  {
    // Communicating iterations ~ Binomial(T, p); six standard deviations
    // keep a correct engine inside on all but ~1e-9 of seeds.
    const double t = static_cast<double>(in.proxskip.iterations);
    const double p = in.proxskip.skip_prob;
    const double mean = t * p;
    const double half = 6.0 * std::sqrt(t * p * (1.0 - p));
    const double k = static_cast<double>(comm_iters);
    std::ostringstream d;
    d << "communicating iterations=" << comm_iters << " expected " << mean
      << " +- " << half;
    r.checks.push_back(make_check("comm_iterations_binomial",
                                  std::abs(k - mean) <= half, d));
  }
}

// ---- Span accounting -----------------------------------------------------

void summarize_spans(const std::vector<Span>& spans, RunResult& r) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals;
  intervals.reserve(spans.size());
  for (const Span& s : spans) {
    LayerTotals& t = r.layers[static_cast<std::size_t>(s.layer)];
    t.busy_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    ++t.calls;
    t.items += s.items;
    intervals.emplace_back(s.start_ns, s.end_ns);
  }
  // Union of all spans on all threads: the time some layer was running.
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0, lo = 0, hi = 0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= hi) {
      hi = std::max(hi, end);
      continue;
    }
    if (open) covered += hi - lo;
    lo = start;
    hi = end;
    open = true;
  }
  if (open) covered += hi - lo;
  r.covered_s = static_cast<double>(covered) / 1e9;
}

}  // namespace

Inputs build_inputs(const std::string& workload, std::uint64_t seed,
                    bool small) {
  Inputs in;
  if (workload == "cnn-fig3") {
    in = build_cnn(seed, small);
  } else if (workload == "fleet-sampled") {
    in = build_fleet(seed, small);
  } else if (workload == "proxskip-comm") {
    in = build_proxskip(seed, small);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  in.workload = workload;
  in.seed = seed;
  return in;
}

RunResult run_workload(const RunConfig& config) {
  RunResult r;
  const std::uint64_t setup_start = now_ns();
  Inputs in = build_inputs(config.workload, config.seed, config.small);

  // The traced run trains through forwarding decorators on every seam the
  // workload uses; the untraced run hands the engine the objects as built.
  std::shared_ptr<const fnn::Model> model = in.model;
  std::shared_ptr<const fd::Federation> fed = in.fed;
  ffl::TrainerOptions trainer_options = in.trainer;
  fedvr::core::ProxSkipVROptions proxskip_options = in.proxskip;
  if (config.traced) {
    model = std::make_shared<TracedModel>(in.model);
    fed = std::make_shared<TracedFederation>(in.fed);
    trainer_options.aggregator = std::make_shared<TracedAggregator>(
        in.trainer.aggregator
            ? in.trainer.aggregator
            : ffl::make_aggregator(ffl::AggregatorKind::kMean));
    for (auto* comm : {&trainer_options.comm, &proxskip_options.comm}) {
      if (comm->compressor) {
        comm->compressor = std::make_shared<TracedCompressor>(comm->compressor);
      }
    }
  }
  fu::Rng init_rng = fu::fork(config.seed, 0, 0, fu::stream::kInit);
  const std::vector<double> w0 = in.model->initial_parameters(init_rng);

  ffl::TrainingTrace trace;
  if (in.engine == Engine::kTrainer) {
    const ffl::Trainer trainer(model, fed, trainer_options);
    const fedvr::opt::LocalSolver solver(model, in.solver);
    const std::uint64_t train_start = now_ns();
    r.setup_s = static_cast<double>(train_start - setup_start) / 1e9;
    trace = trainer.run(solver, config.workload, w0);
    r.train_s = static_cast<double>(now_ns() - train_start) / 1e9;
  } else {
    const std::uint64_t train_start = now_ns();
    r.setup_s = static_cast<double>(train_start - setup_start) / 1e9;
    trace = fedvr::core::run_proxskip_vr(model, *in.dataset, proxskip_options,
                                         config.workload, w0);
    r.train_s = static_cast<double>(now_ns() - train_start) / 1e9;
  }
  r.final_param_hash = trace.final_param_hash;
  if (!trace.empty()) r.trace_grad_evals = trace.back().sample_grad_evals;

  std::vector<Span> spans;
  if (config.traced) {
    spans = collect_spans();
    summarize_spans(spans, r);
    if (!config.trace_path.empty()) {
      const std::uint64_t origin = spans.empty() ? 0 : std::min_element(
          spans.begin(), spans.end(), [](const Span& a, const Span& b) {
            return a.start_ns < b.start_ns;
          })->start_ns;
      write_chrome_trace(config.trace_path, spans, origin);
    }
  }
  const std::vector<Span>* traced = config.traced ? &spans : nullptr;
  if (config.workload == "cnn-fig3") {
    cnn_checks(in, trace, w0, traced, r);
  } else if (config.workload == "fleet-sampled") {
    fleet_checks(in, trace, w0, traced, config.small, r);
  } else {
    proxskip_checks(in, trace, w0, traced, r);
  }
  return r;
}

}  // namespace perfbench
