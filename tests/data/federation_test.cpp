#include "data/federation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/synthetic.h"
#include "util/error.h"

namespace fedvr::data {
namespace {

using fedvr::util::Error;

FederatedDataset small_fed() {
  SyntheticConfig cfg;
  cfg.num_devices = 5;
  cfg.dim = 4;
  cfg.num_classes = 3;
  cfg.min_samples = 8;
  cfg.max_samples = 40;
  cfg.seed = 7;
  return make_synthetic(cfg);
}

TEST(InMemoryFederation, MatchesBorrowedFederatedDataset) {
  const FederatedDataset fed = small_fed();
  const InMemoryFederation f(fed);
  ASSERT_EQ(f.num_devices(), fed.num_devices());
  EXPECT_EQ(f.total_train_size(), fed.total_train_size());
  EXPECT_FALSE(f.materializes_on_demand());
  Dataset scratch;
  for (std::size_t n = 0; n < fed.num_devices(); ++n) {
    EXPECT_EQ(f.device_train_size(n), fed.train[n].size());
    // weight() must reproduce FederatedDataset::weight bit-for-bit (same
    // two integers, same division) so traces stay hash-identical.
    EXPECT_EQ(f.weight(n), fed.weight(n));
    const Dataset& shard = f.train(n, scratch);
    // Borrowing federation returns the stored shard, not a copy.
    EXPECT_EQ(&shard, &fed.train[n]);
  }
  const Dataset pooled = fed.pooled_test();
  EXPECT_EQ(f.pooled_test().size(), pooled.size());
}

TEST(InMemoryFederation, WeightsSumToOne) {
  const FederatedDataset fed = small_fed();
  const InMemoryFederation f(fed);
  double sum = 0.0;
  for (std::size_t n = 0; n < f.num_devices(); ++n) sum += f.weight(n);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

VirtualFederation counting_virtual(std::size_t num_devices) {
  auto size_fn = [](std::size_t device) { return 3 + device % 4; };
  auto gen = [](std::size_t device, std::size_t num_samples, Dataset& out) {
    out = Dataset(tensor::Shape({2}), num_samples, 2);
    for (std::size_t i = 0; i < num_samples; ++i) {
      auto x = out.mutable_sample(i);
      x[0] = static_cast<double>(device);
      x[1] = static_cast<double>(i);
      out.set_label(i, static_cast<int>((device + i) % 2));
    }
  };
  Dataset pooled(tensor::Shape({2}), 4, 2);
  return VirtualFederation(num_devices, size_fn, gen, std::move(pooled));
}

TEST(VirtualFederation, CachesTotalAndReportsSizes) {
  const VirtualFederation f = counting_virtual(10);
  EXPECT_EQ(f.num_devices(), 10u);
  EXPECT_TRUE(f.materializes_on_demand());
  std::size_t total = 0;
  for (std::size_t n = 0; n < 10; ++n) {
    EXPECT_EQ(f.device_train_size(n), 3 + n % 4);
    total += 3 + n % 4;
  }
  EXPECT_EQ(f.total_train_size(), total);
  // Caching the total must not have materialized any shards.
  EXPECT_EQ(f.materializations(), 0u);
}

TEST(VirtualFederation, TrainIsPureInDeviceIndex) {
  const VirtualFederation f = counting_virtual(10);
  Dataset s1, s2;
  const Dataset& a = f.train(7, s1);
  const Dataset& b = f.train(7, s2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.sample(i)[0], b.sample(i)[0]);
    EXPECT_EQ(a.sample(i)[1], b.sample(i)[1]);
    EXPECT_EQ(a.label(i), b.label(i));
  }
  EXPECT_DOUBLE_EQ(a.sample(0)[0], 7.0);
  EXPECT_EQ(f.materializations(), 2u);
}

TEST(VirtualFederation, CountsOnlyTouchedDevices) {
  const VirtualFederation f = counting_virtual(1000000);
  Dataset scratch;
  (void)f.train(0, scratch);
  (void)f.train(999999, scratch);
  (void)f.train(42, scratch);
  EXPECT_EQ(f.materializations(), 3u);
}

TEST(VirtualFederation, MoveTransfersStateAndCounter) {
  VirtualFederation src = counting_virtual(10);
  Dataset scratch;
  (void)src.train(2, scratch);
  const std::size_t total = src.total_train_size();
  // Return-by-value into make_shared is the supported construction idiom.
  const auto moved = std::make_shared<VirtualFederation>(std::move(src));
  EXPECT_EQ(moved->num_devices(), 10u);
  EXPECT_EQ(moved->total_train_size(), total);
  EXPECT_EQ(moved->materializations(), 1u);
  const Dataset& shard = moved->train(4, scratch);
  EXPECT_DOUBLE_EQ(shard.sample(0)[0], 4.0);
  EXPECT_EQ(moved->materializations(), 2u);
}

TEST(MakeSyntheticVirtual, IsDeterministicAndWellFormed) {
  SyntheticConfig cfg;
  cfg.num_devices = 50;
  cfg.dim = 6;
  cfg.num_classes = 4;
  cfg.min_samples = 5;
  cfg.max_samples = 60;
  cfg.seed = 11;
  const VirtualFederation a = make_synthetic_virtual(cfg, 32);
  const VirtualFederation b = make_synthetic_virtual(cfg, 32);
  ASSERT_EQ(a.num_devices(), 50u);
  EXPECT_EQ(a.total_train_size(), b.total_train_size());
  EXPECT_EQ(a.pooled_test().size(), 32u);
  for (std::size_t n = 0; n < 50; ++n) {
    const std::size_t dn = a.device_train_size(n);
    EXPECT_GT(dn, 0u);
    EXPECT_GE(dn, cfg.min_samples);
    EXPECT_LE(dn, cfg.max_samples);
    EXPECT_EQ(dn, b.device_train_size(n));
  }
  // Same (seed, device) ⇒ bit-identical shard across federation instances.
  Dataset sa, sb;
  const Dataset& da = a.train(17, sa);
  const Dataset& db = b.train(17, sb);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    for (std::size_t j = 0; j < da.feature_dim(); ++j) {
      EXPECT_EQ(da.sample(i)[j], db.sample(i)[j]);
    }
    EXPECT_EQ(da.label(i), db.label(i));
  }
}

TEST(MakeSyntheticVirtual, PooledTestIsHeldOutFromSeveralFleetDevices) {
  // The pooled test set must describe the fleet, not one device: it spans
  // several devices' held-out streams and repeats no training sample.
  SyntheticConfig cfg;
  cfg.num_devices = 40;
  cfg.dim = 5;
  cfg.num_classes = 3;
  cfg.min_samples = 5;
  cfg.max_samples = 30;
  cfg.seed = 13;
  constexpr std::size_t kPooled = 64;
  const VirtualFederation f = make_synthetic_virtual(cfg, kPooled);
  const Dataset& pooled = f.pooled_test();
  ASSERT_EQ(pooled.size(), kPooled);
  const auto same = [](std::span<const double> x, std::span<const double> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  std::set<std::size_t> sources;
  std::vector<bool> found(kPooled, false);
  for (std::size_t d = 0; d < cfg.num_devices; ++d) {
    Dataset scratch;
    const Dataset& shard = f.train(d, scratch);
    const Dataset held = make_synthetic_device(cfg, d, kPooled, true);
    for (std::size_t i = 0; i < kPooled; ++i) {
      for (std::size_t j = 0; j < shard.size(); ++j) {
        EXPECT_FALSE(same(pooled.sample(i), shard.sample(j)))
            << "pooled sample " << i << " is in device " << d << "'s shard";
      }
      for (std::size_t j = 0; j < held.size(); ++j) {
        if (!same(pooled.sample(i), held.sample(j))) continue;
        EXPECT_EQ(pooled.label(i), held.label(j));
        found[i] = true;
        sources.insert(d);
      }
    }
  }
  for (std::size_t i = 0; i < kPooled; ++i) EXPECT_TRUE(found[i]) << i;
  EXPECT_GE(sources.size(), 2u);
  // Deterministic in the seed.
  const VirtualFederation again = make_synthetic_virtual(cfg, kPooled);
  for (std::size_t i = 0; i < kPooled; ++i) {
    EXPECT_TRUE(same(pooled.sample(i), again.pooled_test().sample(i)));
  }
}

}  // namespace
}  // namespace fedvr::data
