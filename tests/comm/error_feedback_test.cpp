// The EF recursion: e_n <- (delta_n + e_n) - C(delta_n + e_n), per device.
#include "comm/error_feedback.h"

#include <gtest/gtest.h>

#include <vector>

#include "tensor/vecops.h"

namespace fedvr::comm {
namespace {

TEST(ErrorFeedback, StartsWithZeroResiduals) {
  const ErrorFeedback ef(3, 4);
  EXPECT_EQ(ef.num_devices(), 3u);
  EXPECT_EQ(ef.dim(), 4u);
  for (std::size_t n = 0; n < 3; ++n) {
    for (const double e : ef.residual(n)) EXPECT_EQ(e, 0.0);
  }
}

TEST(ErrorFeedback, RecursionAccumulatesWhatCompressionDropped) {
  ErrorFeedback ef(2, 3);
  // Round 1 on device 0: delta {1, 2, 3}, "compressor" keeps only the last
  // coordinate — the reconstruction is {0, 0, 3}.
  std::vector<double> delta{1.0, 2.0, 3.0};
  ef.compensate(0, delta);  // e = 0: no change
  EXPECT_EQ(delta, (std::vector<double>{1.0, 2.0, 3.0}));
  const std::vector<double> corrected = delta;
  const std::vector<double> reconstructed{0.0, 0.0, 3.0};
  ef.absorb(0, corrected, reconstructed);
  EXPECT_EQ(std::vector<double>(ef.residual(0).begin(), ef.residual(0).end()),
            (std::vector<double>{1.0, 2.0, 0.0}));

  // Round 2: the dropped mass rides along with the next delta.
  std::vector<double> next{0.5, 0.5, 0.5};
  ef.compensate(0, next);
  EXPECT_EQ(next, (std::vector<double>{1.5, 2.5, 0.5}));

  // Device 1's residual never moved: EF state is strictly per-device.
  for (const double e : ef.residual(1)) EXPECT_EQ(e, 0.0);
}

TEST(ErrorFeedback, ExactTransmissionLeavesNoResidual) {
  ErrorFeedback ef(1, 4);
  std::vector<double> delta{1.0, -2.0, 3.0, -4.0};
  ef.compensate(0, delta);
  ef.absorb(0, delta, delta);  // lossless channel: sent == corrected
  for (const double e : ef.residual(0)) EXPECT_EQ(e, 0.0);
}

TEST(ErrorFeedback, KeyedAccumulatorRegistersDevicesOnFirstUse) {
  // Sampled fleets: only devices that ever uplink get a residual slot.
  ErrorFeedback ef(3);
  EXPECT_EQ(ef.num_devices(), 0u);
  EXPECT_EQ(ef.dim(), 3u);
  EXPECT_FALSE(ef.has(999999));
  ef.ensure(999999);
  ef.ensure(7);
  EXPECT_TRUE(ef.has(999999));
  EXPECT_TRUE(ef.has(7));
  EXPECT_FALSE(ef.has(8));
  EXPECT_EQ(ef.num_devices(), 2u);
  for (const double e : ef.residual(999999)) EXPECT_EQ(e, 0.0);
}

TEST(ErrorFeedback, EnsureKeepsAnExistingResidual) {
  ErrorFeedback ef(2);
  ef.ensure(4);
  std::vector<double> delta{1.0, 2.0};
  ef.compensate(4, delta);
  ef.absorb(4, delta, std::vector<double>{1.0, 0.0});
  ef.ensure(4);  // already registered: a no-op, not a reset
  EXPECT_EQ(ef.num_devices(), 1u);
  EXPECT_EQ(std::vector<double>(ef.residual(4).begin(), ef.residual(4).end()),
            (std::vector<double>{0.0, 2.0}));
}

}  // namespace
}  // namespace fedvr::comm
