// What each workload's set-up builds from its seed: data, model, the
// smoothness estimate, solver and engine options. Shared by the training
// runs (workloads.cpp) and the direct layer calls (micro.cpp), so both see
// the same shapes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "comm/channel.h"
#include "core/proxskip.h"
#include "data/dataset.h"
#include "data/federation.h"
#include "fl/trainer.h"
#include "nn/model.h"
#include "opt/local_solver.h"

namespace perfbench {

enum class Engine { kTrainer, kProxSkip };

struct Inputs {
  std::string workload;
  Engine engine = Engine::kTrainer;
  std::uint64_t seed = 1;
  std::shared_ptr<const fedvr::nn::Model> model;
  /// Owner of the in-memory workloads' shards (null for the virtual fleet).
  std::shared_ptr<const fedvr::data::FederatedDataset> dataset;
  /// The device population a round draws from (the trainer's seam).
  std::shared_ptr<const fedvr::data::Federation> fed;
  /// Devices that run the local solver in one round (participants).
  std::size_t devices_per_round = 0;
  fedvr::opt::LocalSolverOptions solver;
  fedvr::fl::TrainerOptions trainer;
  fedvr::core::ProxSkipVROptions proxskip;
  /// The uplink seam as the engine sees it (trainer.comm / proxskip.comm).
  [[nodiscard]] const fedvr::comm::ChannelOptions& comm() const {
    return engine == Engine::kTrainer ? trainer.comm : proxskip.comm;
  }
  /// cnn-fig3 only: the CNN's second conv layer as a GEMM, out (m x n) =
  /// W (m x k) * cols (k x n). Dense models: a batch-rows GEMM.
  std::size_t gemm_m = 0, gemm_n = 0, gemm_k = 0;
  bool gemm_b_transposed = false;
};

/// Builds the workload's inputs (the timed set-up, without the engine
/// object itself). Throws std::invalid_argument for an unknown workload.
[[nodiscard]] Inputs build_inputs(const std::string& workload,
                                  std::uint64_t seed, bool small);

}  // namespace perfbench
