// The benchmark's three training workloads. Each one builds its inputs from
// the seed, trains once on util::ThreadPool::global(), and checks the
// outputs against numbers computed apart from the training engine or
// against properties the method must have.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "traced.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Decorate the seams and record spans (the per-layer run).
  bool traced = false;
  /// Reduced sizes for the self-check.
  bool small = false;
  /// Chrome trace_event output of a traced run (empty: not written).
  std::string trace_path;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct LayerTotals {
  double busy_s = 0.0;  // summed over threads
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
};

struct RunResult {
  double setup_s = 0.0;
  double train_s = 0.0;  // wall time of the training call
  std::uint64_t final_param_hash = 0;
  /// Per-sample gradient evaluations from the engine's trace, when the
  /// workload's trace has a row.
  std::optional<std::uint64_t> trace_grad_evals;
  std::vector<Check> checks;
  // Traced runs only:
  std::array<LayerTotals, kNumLayers> layers{};
  /// Wall time inside the training call that some span covers on some
  /// thread (train_s minus this is the engine's own time).
  double covered_s = 0.0;
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] RunResult run_workload(const RunConfig& config);

/// Direct single-thread calls into layer functions at the workload's
/// shapes: name -> value, in the units BENCHMARK.json declares.
[[nodiscard]] std::vector<std::pair<std::string, double>> run_micro(
    const RunConfig& config, double seconds);

}  // namespace perfbench
