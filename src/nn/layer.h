// Layer abstraction for the hand-rolled neural network library.
//
// Layers are *stateless with respect to parameters*: weights are slices of a
// flat parameter vector owned by the caller and passed into every call. This
// is what lets the variance-reduction estimators (SVRG eq. 8b, SARAH eq. 8a)
// evaluate gradients at the anchor point w^(0) and the current iterate
// w^(t) with the same model object, and lets device threads share one model
// while each owns its parameter vector.
//
// Data layout: a batch is (batch x in_size) row-major; images inside a
// sample are CHW.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace fedvr::nn {

/// Scratch saved by forward() for use in backward(). One cache per layer per
/// (thread, batch); reused across iterations to avoid churn.
struct LayerCache {
  std::vector<double> input;          // copy of the forward input batch
  std::vector<std::size_t> indices;   // e.g. argmax positions for max-pool
  std::vector<double> scratch;        // layer-specific extra storage
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Flat input feature count per sample.
  [[nodiscard]] virtual std::size_t in_size() const = 0;
  /// Flat output feature count per sample.
  [[nodiscard]] virtual std::size_t out_size() const = 0;
  /// Number of parameters this layer owns in the flat vector.
  [[nodiscard]] virtual std::size_t param_count() const = 0;

  /// Writes an initial value for this layer's parameter slice.
  virtual void init_params(util::Rng& rng, std::span<double> w) const = 0;

  /// y = f(x; w) for a batch. `cache` may be nullptr for inference-only
  /// calls (backward will not be invoked).
  virtual void forward(std::span<const double> w, std::size_t batch,
                       std::span<const double> x, std::span<double> y,
                       LayerCache* cache) const = 0;

  /// Given upstream gradient dy, writes dx (gradient w.r.t. the input) and
  /// *accumulates* into dw (gradient w.r.t. this layer's parameters).
  /// An empty dx means the input gradient is not needed (the first layer of
  /// a Sequential): the layer skips computing it, and dw comes out the same
  /// bits as with a full dx. `cache` must come from a matching forward()
  /// call.
  virtual void backward(std::span<const double> w, std::size_t batch,
                        std::span<const double> dy, std::span<double> dx,
                        std::span<double> dw,
                        const LayerCache& cache) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace fedvr::nn
