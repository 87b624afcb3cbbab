#include "nn/activation.h"

#include <cmath>

#include "tensor/kernels.h"
#include "util/error.h"

namespace fedvr::nn {

ElementwiseLayer::ElementwiseLayer(std::size_t size) : size_(size) {
  FEDVR_CHECK(size > 0);
}

void ElementwiseLayer::init_params(util::Rng& /*rng*/,
                                   std::span<double> w) const {
  FEDVR_CHECK(w.empty());
}

void ElementwiseLayer::forward(std::span<const double> w, std::size_t batch,
                               std::span<const double> x,
                               std::span<double> y, LayerCache* cache) const {
  FEDVR_CHECK(w.empty());
  FEDVR_CHECK(x.size() == batch * size_ && y.size() == batch * size_);
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = value(x[i]);
  if (cache != nullptr) {
    // Cache the *output*: derivative_from_output consumes it directly.
    cache->scratch.assign(y.begin(), y.end());
  }
}

void ElementwiseLayer::backward(std::span<const double> w, std::size_t batch,
                                std::span<const double> dy,
                                std::span<double> dx, std::span<double> dw,
                                const LayerCache& cache) const {
  FEDVR_CHECK(w.empty() && dw.empty());
  FEDVR_CHECK(dy.size() == batch * size_ &&
              (dx.empty() || dx.size() == batch * size_));
  FEDVR_CHECK(cache.scratch.size() == batch * size_);
  if (dx.empty()) return;  // no parameters: an unneeded dx is all the work
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dx[i] = dy[i] * derivative_from_output(cache.scratch[i]);
  }
}

double TanhLayer::value(double x) const { return std::tanh(x); }

double SigmoidLayer::value(double x) const {
  // Stable in both tails.
  if (x >= 0.0) {
    return 1.0 / (1.0 + std::exp(-x));
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

ReluLayer::ReluLayer(std::size_t size) : size_(size) {
  FEDVR_CHECK(size > 0);
}

void ReluLayer::init_params(util::Rng& /*rng*/, std::span<double> w) const {
  FEDVR_CHECK(w.empty());
}

void ReluLayer::forward(std::span<const double> w, std::size_t batch,
                        std::span<const double> x, std::span<double> y,
                        LayerCache* cache) const {
  FEDVR_CHECK(w.empty());
  FEDVR_CHECK(x.size() == batch * size_ && y.size() == batch * size_);
  tensor::relu(x, y);
  if (cache != nullptr) cache->input.assign(x.begin(), x.end());
}

void ReluLayer::backward(std::span<const double> w, std::size_t batch,
                         std::span<const double> dy, std::span<double> dx,
                         std::span<double> dw,
                         const LayerCache& cache) const {
  FEDVR_CHECK(w.empty() && dw.empty());
  FEDVR_CHECK(dy.size() == batch * size_ &&
              (dx.empty() || dx.size() == batch * size_));
  FEDVR_CHECK(cache.input.size() == batch * size_);
  if (dx.empty()) return;  // no parameters: an unneeded dx is all the work
  tensor::relu_backward(cache.input, dy, dx);
}

}  // namespace fedvr::nn
