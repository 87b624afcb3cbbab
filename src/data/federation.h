// Device-population abstraction for the event-driven round engine.
//
// A `Federation` answers the only questions a round actually asks about the
// fleet: how many devices exist, how big each local shard is (for the D_n/D
// aggregation weights), and "give me device n's training data" — without
// promising that all N shards live in memory at once. Two implementations:
//
//   * InMemoryFederation — borrows a materialized FederatedDataset (the
//     paper-scale path, N ≈ 100). `train(n, ...)` returns the stored shard.
//   * VirtualFederation — the million-device path. Shards are *generated on
//     demand* from a pure function of the device index (in fedvr always a
//     counter-based RNG fork(seed, device, ..., kData) recipe), so the whole
//     population costs O(1) memory and a round touches only the m sampled
//     participants. Identical device index ⇒ bit-identical shard, however
//     devices are scheduled onto threads — the same determinism contract the
//     fault layer already relies on.
//
// weight(n) = D_n / D uses a total cached at construction: the historical
// FederatedDataset::weight recomputed the O(N) total on every call, which is
// quadratic in fleet size over a round of weight lookups.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"

namespace fedvr::data {

class Federation {
 public:
  virtual ~Federation() = default;

  [[nodiscard]] virtual std::size_t num_devices() const = 0;

  /// Device n's local training-set size D_n. Must be O(1) memory and pure
  /// (same n ⇒ same answer), cheap enough to call per weight lookup.
  [[nodiscard]] virtual std::size_t device_train_size(std::size_t n) const = 0;

  /// Device n's training shard. `scratch` is caller-owned storage an
  /// on-demand implementation may materialize into (one per worker thread
  /// keeps the parallel solve path allocation-bounded); an in-memory
  /// implementation ignores it and returns its stored shard. Thread-safe
  /// for concurrent calls with distinct `scratch` objects.
  [[nodiscard]] virtual const Dataset& train(std::size_t n,
                                             Dataset& scratch) const = 0;

  /// The pooled test set global accuracy is reported on.
  [[nodiscard]] virtual const Dataset& pooled_test() const = 0;

  /// True when train() generates shards on demand (so callers can reason
  /// about materialization cost in tests and benches).
  [[nodiscard]] virtual bool materializes_on_demand() const = 0;

  /// Total training samples across the fleet (the paper's D), cached.
  [[nodiscard]] std::size_t total_train_size() const {
    return total_train_size_;
  }

  /// Aggregation weight D_n / D — same arithmetic as the historical
  /// FederatedDataset::weight (a double division of the same two integers),
  /// so traces stay hash-identical.
  [[nodiscard]] double weight(std::size_t n) const {
    return static_cast<double>(device_train_size(n)) /
           static_cast<double>(total_train_size_);
  }

 protected:
  /// Implementations compute the fleet total once at construction.
  void set_total_train_size(std::size_t total) { total_train_size_ = total; }

 private:
  std::size_t total_train_size_ = 0;
};

/// Borrows a fully materialized FederatedDataset; the dataset must outlive
/// the federation (same lifetime contract the Trainer has always had).
class InMemoryFederation final : public Federation {
 public:
  explicit InMemoryFederation(const FederatedDataset& fed);

  [[nodiscard]] std::size_t num_devices() const override {
    return fed_.num_devices();
  }
  [[nodiscard]] std::size_t device_train_size(std::size_t n) const override;
  [[nodiscard]] const Dataset& train(std::size_t n,
                                     Dataset& scratch) const override;
  [[nodiscard]] const Dataset& pooled_test() const override {
    return pooled_test_;
  }
  [[nodiscard]] bool materializes_on_demand() const override { return false; }

 private:
  const FederatedDataset& fed_;
  Dataset pooled_test_;
};

/// Million-device population: shard sizes and contents come from pure
/// per-device functions, so storage is O(1) in the fleet size and only the
/// devices a round actually touches are ever materialized.
class VirtualFederation final : public Federation {
 public:
  /// D_n for device n. Must be pure and > 0 for every device.
  using SizeFn = std::function<std::size_t(std::size_t device)>;
  /// Materializes device n's shard (exactly `num_samples` samples) into
  /// `out`. Must be pure in `device` and safe to call concurrently with
  /// distinct `out` objects.
  using Generator = std::function<void(std::size_t device,
                                       std::size_t num_samples, Dataset& out)>;

  /// Walks `size_fn` once over the fleet to cache the total (O(N) time at
  /// construction, O(1) memory).
  VirtualFederation(std::size_t num_devices, SizeFn size_fn,
                    Generator generator, Dataset pooled_test);

  /// Movable despite the atomic materialization counter (its value
  /// transfers), so factories like make_synthetic_virtual can return by
  /// value straight into a shared_ptr. Not movable while another thread is
  /// concurrently calling train() on the source.
  VirtualFederation(VirtualFederation&& other) noexcept;
  VirtualFederation& operator=(VirtualFederation&&) = delete;

  [[nodiscard]] std::size_t num_devices() const override {
    return num_devices_;
  }
  [[nodiscard]] std::size_t device_train_size(std::size_t n) const override;
  [[nodiscard]] const Dataset& train(std::size_t n,
                                     Dataset& scratch) const override;
  [[nodiscard]] const Dataset& pooled_test() const override {
    return pooled_test_;
  }
  [[nodiscard]] bool materializes_on_demand() const override { return true; }

  /// Number of train() materializations so far — the observable behind the
  /// "a round touches only its m participants" tests.
  [[nodiscard]] std::uint64_t materializations() const {
    return materializations_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t num_devices_;
  SizeFn size_fn_;
  Generator generator_;
  Dataset pooled_test_;
  mutable std::atomic<std::uint64_t> materializations_{0};
};

/// A virtual Synthetic(alpha, beta) federation over config.num_devices
/// devices: shard contents from make_synthetic_device, per-device power-law
/// sizes from an *independent* lognormal draw per device (rank-free — the
/// fleet-wide rescaling of power_law_sizes needs all N draws at once), and
/// a pooled test set of held-out samples from a seed-drawn set of fleet
/// devices (about 4 per device). Deterministic in config.seed.
[[nodiscard]] VirtualFederation make_synthetic_virtual(
    const SyntheticConfig& config, std::size_t pooled_test_samples = 256);

}  // namespace fedvr::data
