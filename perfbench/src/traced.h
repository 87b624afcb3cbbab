// The traced run's instrumentation, taken entirely from outside the program:
// forwarding decorators over the four public abstract seams (nn::Model,
// data::Federation, fl::Aggregator, comm::Compressor). Each call through a
// decorator records one span (layer, thread, start, end, items) into a
// per-thread in-memory buffer; nothing is written until the run ends.
//
// A decorator only forwards, so a traced run computes bit-identically to
// an untraced one — the benchmark checks that by comparing the final
// parameter hashes of the two runs.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "comm/compression.h"
#include "data/federation.h"
#include "fl/aggregation.h"
#include "nn/model.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kNnGrad,        // Model::loss_and_gradient
  kNnEval,        // Model::loss, Model::predict
  kDataShard,     // Federation::train
  kFlAggregate,   // Aggregator::aggregate
  kCommCompress,  // Compressor::compress
};
inline constexpr std::size_t kNumLayers = 5;
/// Span names, in Layer order (also the Chrome trace event names).
inline constexpr std::array<std::string_view, kNumLayers> kLayerNames = {
    "nn.grad", "nn.eval", "data.shard", "fl.aggregate", "comm.compress"};

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t items = 0;  // samples, shards, updates or kept coordinates
  std::uint32_t thread = 0;
  Layer layer = Layer::kNnGrad;
};

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::uint64_t now_ns();

/// Records a span on the calling thread's buffer. Buffers are registered on
/// a thread's first record; collect() may only run once every recording
/// thread has synchronized with the caller (after the traced run returns).
void record_span(const Span& span);
[[nodiscard]] std::vector<Span> collect_spans();

/// Chrome trace_event JSON in the shape fedvr::obs writes (complete "X"
/// events, pid 0, dense tid, microsecond ts/dur relative to `origin_ns`).
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans,
                        std::uint64_t origin_ns);

class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::uint64_t items)
      : layer_(layer), items_(items), start_ns_(now_ns()) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    record_span({.start_ns = start_ns_, .end_ns = now_ns(), .items = items_,
                 .layer = layer_});
  }

 private:
  Layer layer_;
  std::uint64_t items_;
  std::uint64_t start_ns_;
};

class TracedModel final : public fedvr::nn::Model {
 public:
  explicit TracedModel(std::shared_ptr<const fedvr::nn::Model> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::size_t num_parameters() const override {
    return inner_->num_parameters();
  }
  void initialize(fedvr::util::Rng& rng, std::span<double> w) const override {
    inner_->initialize(rng, w);
  }
  [[nodiscard]] double loss(std::span<const double> w,
                            const fedvr::data::Dataset& ds,
                            std::span<const std::size_t> indices)
      const override {
    const ScopedSpan span(Layer::kNnEval, indices.size());
    return inner_->loss(w, ds, indices);
  }
  double loss_and_gradient(std::span<const double> w,
                           const fedvr::data::Dataset& ds,
                           std::span<const std::size_t> indices,
                           std::span<double> grad) const override {
    const ScopedSpan span(Layer::kNnGrad, indices.size());
    return inner_->loss_and_gradient(w, ds, indices, grad);
  }
  void predict(std::span<const double> w, const fedvr::data::Dataset& ds,
               std::span<const std::size_t> indices,
               std::span<std::size_t> out) const override {
    const ScopedSpan span(Layer::kNnEval, indices.size());
    inner_->predict(w, ds, indices, out);
  }

 private:
  std::shared_ptr<const fedvr::nn::Model> inner_;
};

class TracedFederation final : public fedvr::data::Federation {
 public:
  explicit TracedFederation(
      std::shared_ptr<const fedvr::data::Federation> inner)
      : inner_(std::move(inner)) {
    set_total_train_size(inner_->total_train_size());
  }
  [[nodiscard]] std::size_t num_devices() const override {
    return inner_->num_devices();
  }
  [[nodiscard]] std::size_t device_train_size(std::size_t n) const override {
    return inner_->device_train_size(n);
  }
  [[nodiscard]] const fedvr::data::Dataset& train(
      std::size_t n, fedvr::data::Dataset& scratch) const override {
    const ScopedSpan span(Layer::kDataShard, 1);
    return inner_->train(n, scratch);
  }
  [[nodiscard]] const fedvr::data::Dataset& pooled_test() const override {
    return inner_->pooled_test();
  }
  [[nodiscard]] bool materializes_on_demand() const override {
    return inner_->materializes_on_demand();
  }

 private:
  std::shared_ptr<const fedvr::data::Federation> inner_;
};

class TracedAggregator final : public fedvr::fl::Aggregator {
 public:
  explicit TracedAggregator(std::shared_ptr<const fedvr::fl::Aggregator> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void aggregate(std::span<const double> anchor,
                 std::span<const std::span<const double>> updates,
                 std::span<const double> weights,
                 std::span<double> out) const override {
    const ScopedSpan span(Layer::kFlAggregate, updates.size());
    inner_->aggregate(anchor, updates, weights, out);
  }

 private:
  std::shared_ptr<const fedvr::fl::Aggregator> inner_;
};

/// Also records, as the span's items, how many coordinates survived the
/// compressor — the sparse count the wire layout check needs.
class TracedCompressor final : public fedvr::comm::Compressor {
 public:
  explicit TracedCompressor(
      std::shared_ptr<const fedvr::comm::Compressor> inner)
      : inner_(std::move(inner)) {}
  void compress(std::span<double> delta,
                fedvr::util::Rng& rng) const override {
    const std::uint64_t start = now_ns();
    inner_->compress(delta, rng);
    const std::uint64_t end = now_ns();
    // Counted after the span closes: the scan is the benchmark's work.
    std::uint64_t nonzeros = 0;
    for (const double v : delta) nonzeros += v != 0.0 ? 1 : 0;
    record_span({.start_ns = start, .end_ns = end, .items = nonzeros,
                 .layer = Layer::kCommCompress});
  }
  [[nodiscard]] std::size_t kept(std::size_t dim) const override {
    return inner_->kept(dim);
  }
  [[nodiscard]] std::size_t wire_bytes(std::size_t dim) const override {
    return inner_->wire_bytes(dim);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const fedvr::comm::Compressor> inner_;
};

}  // namespace perfbench
