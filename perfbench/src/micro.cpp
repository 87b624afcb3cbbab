// Direct calls into single layers at a workload's shapes. Each metric is the
// median over timed batches of calls; batches are sized to at least ~100 us
// so clock resolution does not dominate the tiny operations.
#include <algorithm>
#include <cmath>

#include "comm/channel.h"
#include "fl/event_engine.h"
#include "inputs.h"
#include "tensor/kernels.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace fd = fedvr::data;
namespace fu = fedvr::util;

namespace {

/// Median seconds per call of `fn` over batches, for about `budget_s`.
template <typename F>
double median_seconds_per_call(F&& fn, double budget_s) {
  std::size_t per_batch = 1;
  for (;;) {
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < per_batch; ++i) fn();
    if (now_ns() - start >= 100000 || per_batch >= (std::size_t{1} << 20)) {
      break;
    }
    per_batch *= 2;
  }
  std::vector<double> samples;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
  while (samples.size() < 5 || (now_ns() < deadline && samples.size() < 2000)) {
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < per_batch; ++i) fn();
    samples.push_back(static_cast<double>(now_ns() - start) / 1e9 /
                      static_cast<double>(per_batch));
  }
  const auto mid = samples.begin() +
                   static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return samples[samples.size() / 2];
}

/// The device whose shard size is the median of `candidates`' sizes.
std::size_t median_device(const fd::Federation& fed,
                          std::vector<std::size_t> candidates) {
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              return fed.device_train_size(a) < fed.device_train_size(b);
            });
  return candidates[candidates.size() / 2];
}

}  // namespace

std::vector<std::pair<std::string, double>> run_micro(const RunConfig& config,
                                                      double seconds) {
  const Inputs in = build_inputs(config.workload, config.seed, config.small);
  const std::size_t pool_threads = fu::ThreadPool::global().size();
  const double budget = seconds / 6.0;
  std::vector<std::pair<std::string, double>> out;
  fu::Rng rng(config.seed);

  // Single-thread layer calls: a one-worker pool makes every kernel serial.
  fu::ThreadPool::reset_global(1);

  {
    const std::size_t m = in.gemm_m, n = in.gemm_n, k = in.gemm_k;
    std::vector<double> a(m * k), b(k * n), c(m * n);
    for (double& v : a) v = rng.normal(0.0, 1.0);
    for (double& v : b) v = rng.normal(0.0, 1.0);
    const auto trans_b = in.gemm_b_transposed ? fedvr::tensor::Trans::kYes
                                              : fedvr::tensor::Trans::kNo;
    const double s = median_seconds_per_call(
        [&] {
          fedvr::tensor::gemm_packed(fedvr::tensor::Trans::kNo, trans_b, m, n,
                                     k, 1.0, a, b, 0.0, c);
        },
        budget);
    out.emplace_back("tensor.gemm_gflops",
                     2.0 * static_cast<double>(m * n * k) / s / 1e9);
  }

  std::vector<std::size_t> candidates;
  if (in.dataset) {
    candidates.resize(in.fed->num_devices());
    for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
  } else {
    rng.sample_subset_sorted(in.fed->num_devices(), 33, candidates);
  }
  const std::size_t device = median_device(*in.fed, candidates);
  fd::Dataset scratch;
  const fd::Dataset& shard = in.fed->train(device, scratch);
  fu::Rng init_rng = fu::fork(config.seed, 0, 0, fu::stream::kInit);
  const std::vector<double> w0 = in.model->initial_parameters(init_rng);

  {
    const fedvr::opt::LocalSolver solver(in.model, in.solver);
    fedvr::opt::SolverWorkspace ws;
    std::vector<double> w_out;
    const double s = median_seconds_per_call(
        [&] {
          fu::Rng solve_rng(config.seed);
          (void)solver.solve(shard, w0, solve_rng, ws, w_out);
        },
        budget);
    out.emplace_back("opt.solve_ms", s * 1e3);
  }

  {
    const std::size_t dim = in.model->num_parameters();
    fedvr::comm::Channel channel(in.comm(), 1, dim);
    channel.prepare(std::vector<std::size_t>{0});
    std::vector<double> delta(dim), scratch_delta(dim);
    for (double& v : delta) v = rng.normal(0.0, 1e-2);
    std::size_t bytes = 0;
    fu::Rng comm_rng(config.seed);
    const double s = median_seconds_per_call(
        [&] {
          std::copy(delta.begin(), delta.end(), scratch_delta.begin());
          bytes = channel.uplink(0, scratch_delta, comm_rng);
        },
        budget);
    out.emplace_back("comm.uplink_us", s * 1e6);
    out.emplace_back("comm.uplink_bytes", static_cast<double>(bytes));
  }

  {
    const double s = median_seconds_per_call(
        [&] {
          fd::Dataset fresh;
          const fd::Dataset& got = in.fed->train(device, fresh);
          if (got.empty()) throw std::runtime_error("empty shard");
        },
        budget);
    out.emplace_back("data.shard_us", s * 1e6);
  }

  {
    const std::size_t m = in.devices_per_round;
    std::vector<double> completion(m);
    for (double& t : completion) t = 1.0 + rng.uniform();
    fedvr::fl::RoundSchedule schedule;
    const double s = median_seconds_per_call(
        [&] {
          auto& outcomes = schedule.reset(m);
          for (std::size_t i = 0; i < m; ++i) {
            outcomes[i].device = i;
            outcomes[i].completion_time = completion[i];
          }
          schedule.build(std::nullopt);
        },
        budget);
    out.emplace_back("fl.schedule_us", s * 1e6);
  }

  // Fork/join on the benchmark's pool, called from one thread.
  fu::ThreadPool::reset_global(pool_threads);
  {
    const std::size_t m = in.devices_per_round;
    const double s = median_seconds_per_call(
        [&] {
          fu::ThreadPool::global().parallel_for(0, m, [](std::size_t) {});
        },
        budget);
    out.emplace_back("util.fork_join_us", s * 1e6);
  }
  return out;
}

}  // namespace perfbench
