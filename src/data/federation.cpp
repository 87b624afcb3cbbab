#include "data/federation.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "check/check.h"
#include "util/error.h"
#include "util/rng.h"

namespace fedvr::data {

InMemoryFederation::InMemoryFederation(const FederatedDataset& fed)
    : fed_(fed), pooled_test_(fed.pooled_test()) {
  FEDVR_CHECK_MSG(fed.num_devices() > 0, "need at least one device");
  std::size_t total = 0;
  for (const auto& shard : fed_.train) total += shard.size();
  set_total_train_size(total);
}

std::size_t InMemoryFederation::device_train_size(std::size_t n) const {
  FEDVR_CHECK_INDEX(n, fed_.train.size());
  return fed_.train[n].size();
}

const Dataset& InMemoryFederation::train(std::size_t n,
                                         Dataset& /*scratch*/) const {
  FEDVR_CHECK_INDEX(n, fed_.train.size());
  return fed_.train[n];
}

VirtualFederation::VirtualFederation(std::size_t num_devices, SizeFn size_fn,
                                     Generator generator, Dataset pooled_test)
    : num_devices_(num_devices),
      size_fn_(std::move(size_fn)),
      generator_(std::move(generator)),
      pooled_test_(std::move(pooled_test)) {
  FEDVR_CHECK_MSG(num_devices_ > 0, "need at least one device");
  FEDVR_CHECK_MSG(size_fn_ != nullptr, "size_fn must not be null");
  FEDVR_CHECK_MSG(generator_ != nullptr, "generator must not be null");
  std::size_t total = 0;
  for (std::size_t n = 0; n < num_devices_; ++n) {
    const std::size_t size = size_fn_(n);
    FEDVR_CHECK_MSG(size > 0, "device " << n << " has no training data");
    total += size;
  }
  set_total_train_size(total);
}

VirtualFederation::VirtualFederation(VirtualFederation&& other) noexcept
    : Federation(other),
      num_devices_(other.num_devices_),
      size_fn_(std::move(other.size_fn_)),
      generator_(std::move(other.generator_)),
      pooled_test_(std::move(other.pooled_test_)),
      materializations_(
          other.materializations_.load(std::memory_order_relaxed)) {}

std::size_t VirtualFederation::device_train_size(std::size_t n) const {
  FEDVR_CHECK_INDEX(n, num_devices_);
  return size_fn_(n);
}

const Dataset& VirtualFederation::train(std::size_t n,
                                        Dataset& scratch) const {
  FEDVR_CHECK_INDEX(n, num_devices_);
  const std::size_t size = size_fn_(n);
  generator_(n, size, scratch);
  FEDVR_CHECK_MSG(scratch.size() == size,
                  "generator produced " << scratch.size() << " samples for "
                                        << size << "-sample device " << n);
  materializations_.fetch_add(1, std::memory_order_relaxed);
  return scratch;
}

VirtualFederation make_synthetic_virtual(const SyntheticConfig& config,
                                         std::size_t pooled_test_samples) {
  FEDVR_CHECK_MSG(config.num_devices > 0, "need at least one device");
  FEDVR_CHECK_MSG(pooled_test_samples > 0, "need a non-empty pooled test set");
  FEDVR_CHECK(config.max_samples >= config.min_samples);
  FEDVR_CHECK_MSG(config.min_samples >= 1, "need >= 1 sample per device");
  // Per-device power-law-ish size: an independent lognormal mass mapped
  // into [min, max] via the monotone squash m ↦ m/(m+1). Each device's size
  // is a pure function of its own index — no fleet-wide rescaling pass —
  // which is what keeps the population O(1) in memory. Coordinate b = 1
  // keeps this stream disjoint from make_synthetic_device's (b = 0) draws.
  const auto size_fn = [config](std::size_t device) -> std::size_t {
    util::Rng rng =
        util::fork(config.seed, device + 1, 1, util::stream::kData);
    const double mass = rng.lognormal(0.0, config.lognormal_sigma);
    const double t = mass / (mass + 1.0);
    const double span =
        static_cast<double>(config.max_samples - config.min_samples);
    return config.min_samples +
           static_cast<std::size_t>(std::llround(t * span));
  };
  const auto generator = [config](std::size_t device, std::size_t num_samples,
                                  Dataset& out) {
    out = make_synthetic_device(config, device, num_samples);
  };
  // The pooled test set: held-out samples of a seed-drawn set of fleet
  // devices, ~kHeldOut each, so it follows the fleet's distribution. The
  // draw re-seeds from a fork's output (see make_synthetic_device).
  constexpr std::size_t kHeldOut = 4;
  const std::size_t test_devices =
      std::min(config.num_devices,
               (pooled_test_samples + kHeldOut - 1) / kHeldOut);
  util::Rng pick(util::fork(config.seed, 0, 2, util::stream::kData)());
  std::vector<std::size_t> devices;
  pick.sample_subset_sorted(config.num_devices, test_devices, devices);
  Dataset pooled;
  for (std::size_t i = 0; i < test_devices; ++i) {
    const std::size_t k = pooled_test_samples / test_devices +
                          (i < pooled_test_samples % test_devices ? 1 : 0);
    pooled.append(make_synthetic_device(config, devices[i], k,
                                        /*held_out=*/true));
  }
  return VirtualFederation(config.num_devices, size_fn, generator,
                           std::move(pooled));
}

}  // namespace fedvr::data
