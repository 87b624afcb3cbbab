// Sequential::backward hands layer 0 an empty dx: nothing reads the
// gradient w.r.t. the input batch, so the first layer skips computing it.
// These tests pin that the skip is invisible in the parameter gradient —
// bit for bit, against a backward pass that gives every layer a full dx —
// and that every layer type accepts an empty dx.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "check/check.h"
#include "data/dataset.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/feedforward.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/pool.h"
#include "nn/sequential.h"
#include "tensor/vecops.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedvr::nn {
namespace {

using util::Rng;

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

data::Dataset random_dataset(tensor::Shape shape, std::size_t n,
                             std::size_t classes, Rng& rng) {
  data::Dataset ds(std::move(shape), n, classes);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : ds.mutable_sample(i)) v = rng.normal();
    ds.set_label(i, static_cast<int>(rng.below(classes)));
  }
  return ds;
}

// loss_and_gradient's arithmetic for one chunk, except that every layer's
// backward (layer 0's included) writes a full dx.
std::vector<double> gradient_with_full_dx(const FeedForwardModel& model,
                                          std::span<const double> w,
                                          const data::Dataset& ds,
                                          std::span<const std::size_t> idx) {
  const Sequential& net = model.net();
  const std::size_t batch = idx.size();
  std::vector<double> x;
  std::vector<int> y;
  for (const std::size_t i : idx) {
    const auto row = ds.sample(i);
    x.insert(x.end(), row.begin(), row.end());
    y.push_back(ds.label(i));
  }
  Sequential::Workspace ws;
  const auto logits = net.forward(w, batch, x, ws, /*training=*/true);
  std::vector<double> upstream(batch * net.out_size());
  (void)softmax_cross_entropy_backward(batch, net.out_size(), logits, y,
                                       upstream);
  std::vector<double> chunk_grad(w.size(), 0.0);
  for (std::size_t i = net.num_layers(); i-- > 0;) {
    const Layer& layer = net.layer(i);
    const auto [offset, count] = net.param_slice(i);
    std::vector<double> dx(batch * layer.in_size());
    layer.backward(w.subspan(offset, count), batch, upstream, dx,
                   std::span<double>(chunk_grad).subspan(offset, count),
                   ws.caches[i]);
    upstream = std::move(dx);
  }
  std::vector<double> grad(w.size(), 0.0);
  tensor::axpy(1.0, chunk_grad, grad);
  if (model.l2_reg() > 0.0) tensor::axpy(model.l2_reg(), w, grad);
  return grad;
}

void expect_skip_is_bit_neutral(const FeedForwardModel& model,
                                const data::Dataset& ds, std::size_t batch,
                                Rng& rng) {
  const auto w = model.initial_parameters(rng);
  std::vector<std::size_t> idx(batch);
  for (auto& i : idx) i = rng.below(ds.size());
  std::vector<double> grad(w.size());
  (void)model.loss_and_gradient(w, ds, idx, grad);
  const auto want = gradient_with_full_dx(model, w, ds, idx);
  EXPECT_TRUE(same_bits(grad, want));
}

TEST(InputGradSkip, LogisticRegressionGradientIsBitIdentical) {
  Rng rng(11);
  const auto model = make_logistic_regression(60, 10, /*l2_reg=*/0.01);
  const auto ds = random_dataset(tensor::Shape({60}), 128, 10, rng);
  expect_skip_is_bit_neutral(*model, ds, 32, rng);
}

TEST(InputGradSkip, MlpGradientIsBitIdentical) {
  Rng rng(12);
  MlpConfig cfg;
  cfg.input_dim = 20;
  cfg.hidden = {16, 8};
  cfg.num_classes = 5;
  cfg.activation = "tanh";
  const auto model = make_mlp(cfg);
  const auto ds = random_dataset(tensor::Shape({20}), 64, 5, rng);
  expect_skip_is_bit_neutral(*model, ds, 13, rng);
}

TEST(InputGradSkip, TwoLayerCnnGradientIsBitIdentical) {
  Rng rng(13);
  CnnConfig cfg;
  cfg.side = 8;
  cfg.conv1_channels = 4;
  cfg.conv2_channels = 6;
  cfg.kernel = 3;
  cfg.num_classes = 4;
  const auto model = make_two_layer_cnn(cfg);
  const auto ds = random_dataset(tensor::Shape({1, 8, 8}), 32, 4, rng);
  expect_skip_is_bit_neutral(*model, ds, 9, rng);
}

TEST(InputGradSkip, ParameterFreeFirstLayersAreBitIdentical) {
  Rng rng(14);
  {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<ReluLayer>(12));
    layers.push_back(std::make_unique<DenseLayer>(12, 3));
    const FeedForwardModel model(
        std::make_shared<const Sequential>(std::move(layers)));
    const auto ds = random_dataset(tensor::Shape({12}), 40, 3, rng);
    expect_skip_is_bit_neutral(model, ds, 7, rng);
  }
  {
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<MaxPool2dLayer>(2, 6, 6, 2));
    layers.push_back(std::make_unique<DenseLayer>(18, 4));
    const FeedForwardModel model(
        std::make_shared<const Sequential>(std::move(layers)));
    const auto ds = random_dataset(tensor::Shape({2, 6, 6}), 40, 4, rng);
    expect_skip_is_bit_neutral(model, ds, 5, rng);
  }
}

// Forward with a cache, then backward twice: with a full dx and with an
// empty one. The parameter gradient must not notice the difference.
void expect_accepts_empty_dx(const Layer& layer, Rng& rng) {
  const std::size_t batch = 3;
  std::vector<double> w(layer.param_count());
  layer.init_params(rng, w);
  for (auto& v : w) v += 0.1 * rng.normal();  // non-zero biases too
  std::vector<double> x(batch * layer.in_size());
  for (auto& v : x) v = rng.normal();
  std::vector<double> y(batch * layer.out_size());
  LayerCache cache;
  layer.forward(w, batch, x, y, &cache);
  std::vector<double> dy(y.size());
  for (auto& v : dy) v = rng.normal();

  std::vector<double> dx(x.size());
  std::vector<double> dw_full(w.size(), 0.5), dw_empty(w.size(), 0.5);
  layer.backward(w, batch, dy, dx, dw_full, cache);
  layer.backward(w, batch, dy, {}, dw_empty, cache);
  EXPECT_TRUE(same_bits(dw_full, dw_empty)) << layer.name();
}

TEST(InputGradSkip, EveryLayerAcceptsAnEmptyDx) {
  Rng rng(15);
  expect_accepts_empty_dx(DenseLayer(7, 5), rng);
  expect_accepts_empty_dx(
      Conv2dLayer(tensor::ConvGeometry{.channels = 2, .height = 5, .width = 5,
                                       .kernel_h = 3, .kernel_w = 3,
                                       .pad = 1},
                  3),
      rng);
  expect_accepts_empty_dx(MaxPool2dLayer(2, 4, 4, 2), rng);
  expect_accepts_empty_dx(ReluLayer(6), rng);
  expect_accepts_empty_dx(TanhLayer(6), rng);
  expect_accepts_empty_dx(SigmoidLayer(6), rng);
}

// A two-dense-layer net whose weights hold an infinity in one layer, run
// through forward and then backward with a finite upstream gradient.
void backward_with_inf_weight(std::size_t layer_index) {
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<DenseLayer>(4, 3));
  layers.push_back(std::make_unique<DenseLayer>(3, 2));
  const Sequential net(std::move(layers));
  Rng rng(16);
  std::vector<double> w(net.param_count());
  net.init_params(rng, w);
  w[net.param_slice(layer_index).first] =
      std::numeric_limits<double>::infinity();
  std::vector<double> x(2 * 4, 0.5);
  Sequential::Workspace ws;
  (void)net.forward(w, 2, x, ws, /*training=*/true);
  const std::vector<double> d_out(2 * 2, 0.25);
  std::vector<double> dw(w.size(), 0.0);
  net.backward(w, 2, x, d_out, dw, ws);
}

TEST(InputGradSkip, InnerLayersStillCheckTheirInputGradient) {
  if (!check::kCompiledIn || !check::enabled()) {
    GTEST_SKIP() << "fedvr::check inactive";
  }
  // Layer 1's dx = dy * W1 carries the infinity: its boundary check fires.
  try {
    backward_with_inf_weight(1);
    FAIL() << "expected the layer-1 input-gradient check to fire";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("dense"), std::string::npos)
        << e.what();
  }
  // Layer 0 computes no dx, so an infinity in W0 reaches no checked value
  // inside Sequential::backward (its dW = dy^T x stays finite).
  EXPECT_NO_THROW(backward_with_inf_weight(0));
}

}  // namespace
}  // namespace fedvr::nn
