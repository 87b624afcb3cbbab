// Trace pins for both training engines: every eval row's param hash, byte
// ledger, exact model time, sample-gradient count and fault counters, plus
// the final hash, recorded once and compared bit-for-bit at thread-pool
// sizes 1, 2 and hardware. A refactor of the round engine that keeps the
// arithmetic must leave every value here unchanged.
//
// The configurations cover each engine axis at least once (not the full
// product): FedProxVR estimators (SVRG / SARAH / FedAvg), full and sampled
// participation, faults with a deadline, top-k + error feedback over a q8
// wire with byte-derived timing, mean / median / tree aggregation,
// corruption with quarantine, stale replay, per-device solvers; and
// ProxSkip-VR at p = 1, at p = 0.3 with compression and faults, and with a
// round-0 target stop.
//
// Only testing::QuadraticModel is used: it calls vecops only, whose bits do
// not depend on the CPU's SIMD width or on the sanitizer build, so the pins
// hold across the whole CI matrix.
//
// Re-pinning (after a deliberate change to the arithmetic or the random
// streams): run with FEDVR_PRINT_PINS=1 and paste the printed table over
// kPins below.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/proxskip.h"
#include "fl/aggregation.h"
#include "fl/hierarchy.h"
#include "fl/trainer.h"
#include "testing/quadratic_model.h"
#include "util/thread_pool.h"

namespace fedvr::core {
namespace {

using fedvr::testing::quadratic_dataset;
using fedvr::testing::QuadraticModel;

constexpr std::size_t kDim = 6;
constexpr std::size_t kDevices = 8;

struct RowPin {
  std::size_t round;
  std::uint64_t param_hash;
  std::size_t uplink_bytes;
  std::size_t downlink_bytes;
  double model_time;  // compared bit-for-bit
  std::size_t sample_grad_evals;
  // dropped, undelivered, stragglers, uplink retries, deadline misses,
  // corrupted, rejected, quarantined device-rounds.
  std::size_t faults[8];
};

struct RunPin {
  const char* name;
  std::vector<RowPin> rows;
  std::uint64_t final_param_hash;
};

std::shared_ptr<const nn::Model> model() {
  static const auto m = std::make_shared<QuadraticModel>(kDim);
  return m;
}

const data::FederatedDataset& fed() {
  static const data::FederatedDataset f = [] {
    data::FederatedDataset out;
    for (std::size_t d = 0; d < kDevices; ++d) {
      out.train.push_back(quadratic_dataset(
          6 + 3 * (d % 3), kDim, static_cast<double>(d % 4), 0.4, 300 + d));
      out.test.push_back(quadratic_dataset(
          4, kDim, static_cast<double>(d % 4), 0.4, 400 + d));
    }
    return out;
  }();
  return f;
}

opt::LocalSolver solver(opt::Estimator estimator, std::size_t tau = 4,
                        double eta = 0.15, double mu = 0.2) {
  opt::LocalSolverOptions o;
  o.estimator = estimator;
  o.tau = tau;
  o.eta = eta;
  o.mu = mu;
  o.batch_size = 2;
  return opt::LocalSolver(model(), o);
}

fl::TrainerOptions trainer_base() {
  fl::TrainerOptions o;
  o.rounds = 7;
  o.seed = 11;
  o.eval_every = 3;
  return o;
}

fl::TrainingTrace run_trainer(const fl::TrainerOptions& options,
                              const opt::LocalSolver& s) {
  const fl::Trainer trainer(model(), fed(), options);
  return trainer.run(s, "pin");
}

ProxSkipVROptions proxskip_base() {
  ProxSkipVROptions o;
  o.iterations = 24;
  o.seed = 5;
  o.step_size = 0.2;
  o.skip_prob = 0.3;
  o.batch_size = 3;
  o.eval_every = 8;
  return o;
}

fl::FaultModel faulty() {
  fl::FaultModelConfig cfg;
  cfg.dropout_prob = 0.15;
  cfg.straggler_prob = 0.3;
  cfg.straggler_slowdown = 2.5;
  cfg.uplink_loss_prob = 0.3;
  cfg.uplink_max_retries = 1;
  return fl::FaultModel(cfg);
}

comm::ChannelOptions topk_ef_q8() {
  comm::ChannelOptions c;
  c.compressor = std::make_shared<comm::TopKCompressor>(0.5);
  c.error_feedback = true;
  c.uplink_dtype = comm::DType::kInt8Block;
  c.byte_timing = true;
  return c;
}

struct Config {
  const char* name;
  std::function<fl::TrainingTrace()> run;
};

std::vector<Config> configs() {
  std::vector<Config> out;
  out.push_back({"svrg_full", [] {
                   return run_trainer(trainer_base(),
                                      solver(opt::Estimator::kSvrg));
                 }});
  out.push_back({"sarah_sampled", [] {
                   auto o = trainer_base();
                   o.devices_per_round = 3;
                   return run_trainer(o, solver(opt::Estimator::kSarah));
                 }});
  out.push_back({"fedavg_sampled", [] {
                   auto o = trainer_base();
                   o.devices_per_round = 5;
                   return run_trainer(
                       o, solver(opt::Estimator::kSgd, 5, 0.1, 0.0));
                 }});
  out.push_back({"svrg_faults_deadline", [] {
                   auto o = trainer_base();
                   o.faults = faulty();
                   o.round_deadline = 8.0;
                   o.timing = fl::TimingModel{.d_com = 2.0, .d_cmp = 0.75};
                   return run_trainer(o, solver(opt::Estimator::kSvrg));
                 }});
  out.push_back({"sarah_topk_ef_q8_bytetime", [] {
                   auto o = trainer_base();
                   o.devices_per_round = 6;
                   o.comm = topk_ef_q8();
                   o.faults = faulty();
                   return run_trainer(o, solver(opt::Estimator::kSarah));
                 }});
  out.push_back({"svrg_median", [] {
                   auto o = trainer_base();
                   o.aggregator = fl::make_aggregator(fl::AggregatorKind::kMedian);
                   return run_trainer(o, solver(opt::Estimator::kSvrg));
                 }});
  out.push_back({"svrg_tree_sampled", [] {
                   auto o = trainer_base();
                   o.devices_per_round = 7;
                   o.aggregator = fl::make_tree_aggregator({.fanout = 2});
                   return run_trainer(o, solver(opt::Estimator::kSvrg));
                 }});
  out.push_back({"svrg_corrupt_quarantine", [] {
                   auto o = trainer_base();
                   o.rounds = 9;
                   fl::FaultModelConfig cfg;
                   cfg.corrupt_prob = 0.35;
                   cfg.corrupt_stale_weight = 0.0;
                   o.faults = fl::FaultModel(cfg);
                   o.defense.update_norm_bound = 20.0;
                   o.defense.quarantine_strikes = 1;
                   o.defense.quarantine_rounds = 2;
                   return run_trainer(o, solver(opt::Estimator::kSvrg));
                 }});
  out.push_back({"svrg_stale_replay", [] {
                   auto o = trainer_base();
                   fl::FaultModelConfig cfg;
                   cfg.corrupt_prob = 0.4;
                   cfg.corrupt_nan_weight = 0.0;
                   cfg.corrupt_sign_weight = 0.0;
                   cfg.corrupt_scale_weight = 0.0;
                   o.faults = fl::FaultModel(cfg);
                   return run_trainer(o, solver(opt::Estimator::kSvrg));
                 }});
  out.push_back({"per_device_solvers", [] {
                   std::vector<opt::LocalSolver> solvers;
                   for (std::size_t d = 0; d < kDevices; ++d) {
                     solvers.push_back(solver(
                         d % 2 == 0 ? opt::Estimator::kSvrg
                                    : opt::Estimator::kSarah,
                         2 + d % 3, 0.1 + 0.02 * static_cast<double>(d)));
                   }
                   const fl::Trainer trainer(model(), fed(), trainer_base());
                   return trainer.run(solvers, "pin");
                 }});
  out.push_back({"proxskip_p1", [] {
                   auto o = proxskip_base();
                   o.skip_prob = 1.0;
                   o.iterations = 10;
                   o.eval_every = 4;
                   return run_proxskip_vr(model(), fed(), o);
                 }});
  out.push_back({"proxskip_p03", [] {
                   return run_proxskip_vr(model(), fed(), proxskip_base());
                 }});
  out.push_back({"proxskip_p03_compressed_faults", [] {
                   auto o = proxskip_base();
                   o.comm = topk_ef_q8();
                   o.faults = faulty();
                   return run_proxskip_vr(model(), fed(), o);
                 }});
  out.push_back({"proxskip_round0_target_stop", [] {
                   auto o = proxskip_base();
                   o.eval_initial = true;
                   o.target_accuracy = 0.0;
                   return run_proxskip_vr(model(), fed(), o);
                 }});
  out.push_back({"proxskip_eval_initial_faults", [] {
                   auto o = proxskip_base();
                   o.eval_initial = true;
                   o.eval_every = 5;
                   o.faults = faulty();
                   o.timing = fl::TimingModel{.d_com = 3.0, .d_cmp = 0.5};
                   return run_proxskip_vr(model(), fed(), o);
                 }});
  return out;
}

RunPin observe(const char* name, const fl::TrainingTrace& t) {
  RunPin pin{name, {}, t.final_param_hash};
  for (const auto& m : t.rounds) {
    pin.rows.push_back(
        {m.round, m.param_hash, m.uplink_bytes, m.downlink_bytes, m.model_time,
         m.sample_grad_evals,
         {m.dropped_devices, m.undelivered_updates, m.straggler_devices,
          m.uplink_retries, m.deadline_misses, m.corrupted_updates,
          m.rejected_updates, m.quarantined_device_rounds}});
  }
  return pin;
}

void print_pin(const RunPin& p) {
  std::printf("    {\"%s\",\n     {\n", p.name);
  for (const RowPin& r : p.rows) {
    std::printf("         {%zu, 0x%016llxULL, %zu, %zu, %a, %zu, {", r.round,
                static_cast<unsigned long long>(r.param_hash), r.uplink_bytes,
                r.downlink_bytes, r.model_time, r.sample_grad_evals);
    for (std::size_t i = 0; i < 8; ++i) {
      std::printf("%s%zu", i == 0 ? "" : ", ", r.faults[i]);
    }
    std::printf("}},\n");
  }
  std::printf("     },\n     0x%016llxULL},\n",
              static_cast<unsigned long long>(p.final_param_hash));
}

// clang-format off
const std::vector<RunPin> kPins = {
    {"svrg_full",
     {
         {3, 0x9c9560b133322881ULL, 1728, 1728, 0x1.0ccccccccccccp+2, 591, {0, 0, 0, 0, 0, 0, 0, 0}},
         {6, 0xe70ffd0ee6bef69bULL, 3456, 3456, 0x1.0cccccccccccdp+3, 1182, {0, 0, 0, 0, 0, 0, 0, 0}},
         {7, 0xc78e1ec9bccc3350ULL, 4032, 4032, 0x1.399999999999ap+3, 1379, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0xc78e1ec9bccc3350ULL},
    {"sarah_sampled",
     {
         {3, 0x610d930af7bf2347ULL, 648, 648, 0x1.0ccccccccccccp+2, 219, {0, 0, 0, 0, 0, 0, 0, 0}},
         {6, 0x965409f71b131a8eULL, 1296, 1296, 0x1.0cccccccccccdp+3, 447, {0, 0, 0, 0, 0, 0, 0, 0}},
         {7, 0xfcbf1dd9eed2ead2ULL, 1512, 1512, 0x1.399999999999ap+3, 525, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0xfcbf1dd9eed2ead2ULL},
    {"fedavg_sampled",
     {
         {3, 0x132b7a7c4bb34537ULL, 1080, 1080, 0x1.2p+2, 282, {0, 0, 0, 0, 0, 0, 0, 0}},
         {6, 0xe98530efa035be5cULL, 2160, 2160, 0x1.2p+3, 555, {0, 0, 0, 0, 0, 0, 0, 0}},
         {7, 0xbc31d2b64b2f7e95ULL, 2520, 2520, 0x1.5p+3, 647, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0xbc31d2b64b2f7e95ULL},
    {"svrg_faults_deadline",
     {
         {3, 0x72005c11946baff7ULL, 2088, 1728, 0x1.8p+4, 200, {3, 13, 6, 8, 13, 0, 0, 0}},
         {6, 0x7fba337761f52417ULL, 4464, 3456, 0x1.8p+5, 369, {5, 28, 12, 19, 28, 0, 0, 0}},
         {7, 0x7e56594984479eacULL, 5112, 4032, 0x1.cp+5, 441, {7, 31, 12, 22, 31, 0, 0, 0}},
     },
     0x7e56594984479eacULL},
    {"sarah_topk_ef_q8_bytetime",
     {
         {3, 0x697482da4152d1acULL, 1656, 1296, 0x1.599999999999ap+3, 369, {2, 1, 4, 7, 0, 0, 0, 0}},
         {6, 0xbe09bff2e8af7824ULL, 3312, 2592, 0x1.599999999999ap+4, 685, {4, 4, 9, 14, 0, 0, 0, 0}},
         {7, 0xaefe6e9180102d2aULL, 3744, 3024, 0x1.9p+4, 788, {6, 4, 9, 16, 0, 0, 0, 0}},
     },
     0xaefe6e9180102d2aULL},
    {"svrg_median",
     {
         {3, 0x0c31c4ce2cf6b901ULL, 1728, 1728, 0x1.0ccccccccccccp+2, 591, {0, 0, 0, 0, 0, 0, 0, 0}},
         {6, 0x8aa6c0db6e1609baULL, 3456, 3456, 0x1.0cccccccccccdp+3, 1182, {0, 0, 0, 0, 0, 0, 0, 0}},
         {7, 0x240e7db05a996d0aULL, 4032, 4032, 0x1.399999999999ap+3, 1379, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0x240e7db05a996d0aULL},
    {"svrg_tree_sampled",
     {
         {3, 0x1edc930d9529b792ULL, 1512, 1512, 0x1.0ccccccccccccp+2, 516, {0, 0, 0, 0, 0, 0, 0, 0}},
         {6, 0xfc234fc5e21e95b3ULL, 3024, 3024, 0x1.0cccccccccccdp+3, 1032, {0, 0, 0, 0, 0, 0, 0, 0}},
         {7, 0xa95d699a4d0f64cdULL, 3528, 3528, 0x1.399999999999ap+3, 1201, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0xa95d699a4d0f64cdULL},
    {"svrg_corrupt_quarantine",
     {
         {3, 0x02f6629ce6332469ULL, 1440, 1440, 0x1.0ccccccccccccp+2, 497, {0, 0, 0, 0, 0, 5, 4, 4}},
         {6, 0xc23960abbc1bbaf3ULL, 2664, 2664, 0x1.0cccccccccccdp+3, 913, {0, 0, 0, 0, 0, 11, 7, 11}},
         {9, 0x14ca6642e401618cULL, 4032, 4032, 0x1.9333333333334p+3, 1379, {0, 0, 0, 0, 0, 16, 9, 16}},
     },
     0x14ca6642e401618cULL},
    {"svrg_stale_replay",
     {
         {3, 0xb733213a2001221dULL, 1728, 1728, 0x1.0ccccccccccccp+2, 344, {0, 0, 0, 0, 0, 10, 0, 0}},
         {6, 0x4b921f638a873fccULL, 3456, 3456, 0x1.0cccccccccccdp+3, 616, {0, 0, 0, 0, 0, 23, 0, 0}},
         {7, 0xf9ee975540b86b85ULL, 4032, 4032, 0x1.399999999999ap+3, 710, {0, 0, 0, 0, 0, 27, 0, 0}},
     },
     0xf9ee975540b86b85ULL},
    {"per_device_solvers",
     {
         {3, 0xc5abdedf6fc5263cULL, 1728, 1728, 0x1.0ccccccccccccp+2, 483, {0, 0, 0, 0, 0, 0, 0, 0}},
         {6, 0x83fd4101de7e9d4fULL, 3456, 3456, 0x1.0cccccccccccdp+3, 966, {0, 0, 0, 0, 0, 0, 0, 0}},
         {7, 0xa1bee4d07412196aULL, 4032, 4032, 0x1.399999999999ap+3, 1127, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0xa1bee4d07412196aULL},
    {"proxskip_p1",
     {
         {4, 0x1c9afb8dd7b17eb8ULL, 2304, 2304, 0x1.199999999999ap+2, 537, {0, 0, 0, 0, 0, 0, 0, 0}},
         {8, 0x32b8e24f39f6097eULL, 4608, 4608, 0x1.1999999999999p+3, 1005, {0, 0, 0, 0, 0, 0, 0, 0}},
         {10, 0x07d9d30caf6a5614ULL, 5760, 5760, 0x1.5ffffffffffffp+3, 1239, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0x07d9d30caf6a5614ULL},
    {"proxskip_p03",
     {
         {8, 0x2e461f42c9443967ULL, 2304, 2304, 0x1.3333333333333p+2, 729, {0, 0, 0, 0, 0, 0, 0, 0}},
         {16, 0x6308a848b38258f9ULL, 2880, 2880, 0x1.a666666666664p+2, 1182, {0, 0, 0, 0, 0, 0, 0, 0}},
         {24, 0x46158d113e28e5a1ULL, 4608, 4608, 0x1.4cccccccccccap+3, 1773, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0x46158d113e28e5a1ULL},
    {"proxskip_p03_compressed_faults",
     {
         {8, 0x4c4cac4ed29f902cULL, 2736, 2304, 0x1.acccccccccccdp+3, 657, {12, 3, 9, 11, 0, 0, 0, 0}},
         {16, 0x210db9295b021b79ULL, 3384, 2880, 0x1.24p+4, 1056, {21, 3, 29, 12, 0, 0, 0, 0}},
         {24, 0x5ecd58a2e855cbb1ULL, 5040, 4608, 0x1.cf33333333334p+4, 1581, {32, 5, 47, 17, 0, 0, 0, 0}},
     },
     0x5ecd58a2e855cbb1ULL},
    {"proxskip_round0_target_stop",
     {
         {0, 0x10ae2b2c4d310481ULL, 0, 0, 0x0p+0, 69, {0, 0, 0, 0, 0, 0, 0, 0}},
     },
     0x10ae2b2c4d310481ULL},
    {"proxskip_eval_initial_faults",
     {
         {0, 0x10ae2b2c4d310481ULL, 0, 0, 0x0p+0, 69, {0, 0, 0, 0, 0, 0, 0, 0}},
         {5, 0xf4f323f354293681ULL, 1944, 1728, 0x1.fp+4, 486, {5, 2, 4, 7, 0, 0, 0, 0}},
         {10, 0x17e368637521201cULL, 3384, 2880, 0x1.b4p+5, 810, {14, 3, 15, 12, 0, 0, 0, 0}},
         {15, 0x6afba42a3f9c2646ULL, 3384, 2880, 0x1.ep+5, 1014, {20, 3, 25, 12, 0, 0, 0, 0}},
         {20, 0x15a7cbcf10a22570ULL, 3816, 3456, 0x1.2ap+6, 1275, {28, 3, 38, 13, 0, 0, 0, 0}},
         {24, 0x1e7d7795fc5976dcULL, 5040, 4608, 0x1.83p+6, 1581, {32, 5, 47, 17, 0, 0, 0, 0}},
     },
     0x1e7d7795fc5976dcULL},
};
// clang-format on

void expect_matches(const RunPin& want, const RunPin& got,
                    std::size_t threads) {
  SCOPED_TRACE(std::string(want.name) + " @ pool " + std::to_string(threads));
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const RowPin& w = want.rows[i];
    const RowPin& g = got.rows[i];
    SCOPED_TRACE("row " + std::to_string(i));
    EXPECT_EQ(g.round, w.round);
    EXPECT_EQ(g.param_hash, w.param_hash);
    EXPECT_EQ(g.uplink_bytes, w.uplink_bytes);
    EXPECT_EQ(g.downlink_bytes, w.downlink_bytes);
    // Exact: model time is a pure function of the fault draws and timing.
    EXPECT_EQ(g.model_time, w.model_time);
    EXPECT_EQ(g.sample_grad_evals, w.sample_grad_evals);
    for (std::size_t f = 0; f < 8; ++f) {
      EXPECT_EQ(g.faults[f], w.faults[f]) << "fault counter " << f;
    }
  }
  EXPECT_EQ(got.final_param_hash, want.final_param_hash);
}

TEST(TracePins, BothEnginesMatchPinsAtEveryPoolSize) {
  const std::vector<Config> runs = configs();
  if (std::getenv("FEDVR_PRINT_PINS") != nullptr) {
    util::ThreadPool::reset_global(1);
    for (const Config& c : runs) print_pin(observe(c.name, c.run()));
    util::ThreadPool::reset_global(0);
    GTEST_SKIP() << "printed pins; not comparing";
  }
  ASSERT_EQ(runs.size(), kPins.size());
  for (const std::size_t threads : {1u, 2u, 0u}) {
    util::ThreadPool::reset_global(threads);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ASSERT_STREQ(runs[i].name, kPins[i].name);
      expect_matches(kPins[i], observe(runs[i].name, runs[i].run()), threads);
    }
  }
  util::ThreadPool::reset_global(0);
}

// The pinned runs exercise what they claim to: faults, deadline misses,
// corruption, rejections, quarantine and skipped ProxSkip communication all
// fire somewhere, so a pin cannot pass vacuously on an idle path.
TEST(TracePins, PinnedRunsExerciseEveryAxis) {
  std::size_t totals[8] = {};
  for (const RunPin& p : kPins) {
    for (std::size_t f = 0; f < 8; ++f) totals[f] += p.rows.back().faults[f];
  }
  for (std::size_t f = 0; f < 8; ++f) {
    EXPECT_GT(totals[f], 0u) << "fault counter " << f << " never fires";
  }
  for (const RunPin& p : kPins) {
    if (std::string(p.name) == "proxskip_round0_target_stop") {
      ASSERT_EQ(p.rows.size(), 1u);
      EXPECT_EQ(p.rows[0].round, 0u);
    }
  }
}

}  // namespace
}  // namespace fedvr::core
