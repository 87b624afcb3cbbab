// Wire-format round-trip properties: float64 is exact, float32 and
// int8-block round-trip within documented error bounds, sparse sections
// scatter back into place, and from_bytes() rejects malformed frames.
#include "comm/message.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace fedvr::comm {
namespace {

using fedvr::util::Error;

std::vector<double> random_values(std::size_t n, std::uint64_t seed,
                                  double scale = 1.0) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal(0.0, scale);
  return v;
}

TEST(Message, DenseFloat64RoundTripIsExact) {
  // Property test over sizes straddling quantization-block boundaries.
  for (const std::size_t n : {1u, 7u, 32u, 33u, 100u, 257u}) {
    const auto v = random_values(n, 41 + n, 1e6);
    const Message msg = Message::encode_dense(v, DType::kFloat64);
    EXPECT_EQ(msg.dtype(), DType::kFloat64);
    EXPECT_FALSE(msg.sparse());
    EXPECT_EQ(msg.dim(), n);
    EXPECT_EQ(msg.count(), n);
    EXPECT_EQ(msg.wire_size(), kHeaderBytes + n * sizeof(double));
    std::vector<double> out(n);
    msg.decode(out);
    EXPECT_EQ(out, v);  // bit-exact, not just approximate
  }
}

TEST(Message, DenseFloat32RoundTripWithinSinglePrecision) {
  const std::size_t n = 100;
  const auto v = random_values(n, 7);
  const Message msg = Message::encode_dense(v, DType::kFloat32);
  EXPECT_EQ(msg.wire_size(), kHeaderBytes + n * sizeof(float));
  std::vector<double> out(n);
  msg.decode(out);
  for (std::size_t i = 0; i < n; ++i) {
    // float32 has a 24-bit significand: relative error <= 2^-24.
    EXPECT_NEAR(out[i], v[i], std::abs(v[i]) * 0x1.0p-23 + 1e-30);
    EXPECT_EQ(out[i], static_cast<double>(static_cast<float>(v[i])));
  }
}

TEST(Message, Int8BlockRoundTripWithinPerBlockBound) {
  for (const std::size_t n : {5u, 32u, 70u, 256u}) {
    const auto v = random_values(n, 11 + n, 3.0);
    const Message msg = Message::encode_dense(v, DType::kInt8Block);
    std::vector<double> out(n);
    msg.decode(out);
    for (std::size_t b = 0; b * kQuantBlock < n; ++b) {
      const std::size_t lo = b * kQuantBlock;
      const std::size_t hi = std::min(n, lo + kQuantBlock);
      double amax = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        amax = std::max(amax, std::abs(v[i]));
      }
      // scale = amax/127, so rounding error is at most scale/2 = amax/254
      // per element (plus float32 scale storage slack).
      const double bound = amax / 254.0 + amax * 1e-6;
      for (std::size_t i = lo; i < hi; ++i) {
        EXPECT_NEAR(out[i], v[i], bound) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(Message, Int8BlockZeroVectorIsExact) {
  const std::vector<double> v(40, 0.0);
  const Message msg = Message::encode_dense(v, DType::kInt8Block);
  std::vector<double> out(40, 1.0);
  msg.decode(out);
  EXPECT_EQ(out, v);
}

TEST(Message, SparseRoundTripScattersIntoPlace) {
  const std::size_t dim = 50;
  const std::vector<std::uint32_t> idx{3, 7, 20, 49};
  const std::vector<double> vals{1.5, -2.25, 0.125, 9.0};
  const Message msg = Message::encode_sparse(dim, idx, vals, DType::kFloat64);
  EXPECT_TRUE(msg.sparse());
  EXPECT_EQ(msg.dim(), dim);
  EXPECT_EQ(msg.count(), idx.size());
  EXPECT_EQ(msg.wire_size(), kHeaderBytes + idx.size() * sizeof(std::uint32_t) +
                                 idx.size() * sizeof(double));
  std::vector<double> out(dim, 777.0);  // decode must zero-fill the gaps
  msg.decode(out);
  std::vector<double> expect(dim, 0.0);
  for (std::size_t k = 0; k < idx.size(); ++k) expect[idx[k]] = vals[k];
  EXPECT_EQ(out, expect);
}

TEST(Message, EncodeNonzerosKeepsOnlySupport) {
  std::vector<double> delta(30, 0.0);
  delta[2] = 1.0;
  delta[17] = -4.5;
  const Message msg = Message::encode_nonzeros(delta, DType::kFloat64);
  EXPECT_TRUE(msg.sparse());
  EXPECT_EQ(msg.count(), 2u);
  std::vector<double> out(30);
  msg.decode(out);
  EXPECT_EQ(out, delta);
}

TEST(Message, FromBytesRoundTripsSerializedFrames) {
  const auto v = random_values(65, 3);
  const Message msg = Message::encode_dense(v, DType::kInt8Block);
  std::vector<std::uint8_t> wire(msg.bytes().begin(), msg.bytes().end());
  const Message back = Message::from_bytes(std::move(wire));
  EXPECT_EQ(back.dtype(), DType::kInt8Block);
  EXPECT_EQ(back.dim(), 65u);
  std::vector<double> a(65), b(65);
  msg.decode(a);
  back.decode(b);
  EXPECT_EQ(a, b);
}

TEST(Message, FromBytesRejectsMalformedFrames) {
  const auto v = random_values(16, 5);
  const Message msg = Message::encode_dense(v, DType::kFloat64);
  const std::vector<std::uint8_t> good(msg.bytes().begin(),
                                       msg.bytes().end());

  auto corrupt = [&](std::size_t at, std::uint8_t value) {
    std::vector<std::uint8_t> bad = good;
    bad[at] = value;
    return bad;
  };
  // Bad magic, bad version, bad dtype tag, bad flags.
  EXPECT_THROW((void)Message::from_bytes(corrupt(0, 'X')), Error);
  EXPECT_THROW((void)Message::from_bytes(corrupt(2, 99)), Error);
  EXPECT_THROW((void)Message::from_bytes(corrupt(3, 7)), Error);
  EXPECT_THROW((void)Message::from_bytes(corrupt(4, 2)), Error);
  // Truncated payload and truncated header.
  std::vector<std::uint8_t> short_payload(good.begin(), good.end() - 1);
  EXPECT_THROW((void)Message::from_bytes(std::move(short_payload)), Error);
  std::vector<std::uint8_t> tiny(good.begin(), good.begin() + 8);
  EXPECT_THROW((void)Message::from_bytes(std::move(tiny)), Error);
}

TEST(Message, FromBytesRejectsEveryTruncationAndTrailingByte) {
  // A sparse int8 frame: header, index section, per-block scales, values.
  const std::vector<std::uint32_t> idx{1, 4, 40};
  const std::vector<double> vals{0.5, -1.5, 2.0};
  const Message msg = Message::encode_sparse(64, idx, vals, DType::kInt8Block);
  const std::vector<std::uint8_t> good(msg.bytes().begin(),
                                       msg.bytes().end());
  for (std::size_t len = 0; len < good.size(); ++len) {
    std::vector<std::uint8_t> prefix(good.begin(), good.begin() + len);
    EXPECT_THROW((void)Message::from_bytes(std::move(prefix)), Error)
        << "prefix of " << len << " bytes";
  }
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_THROW((void)Message::from_bytes(std::move(padded)), Error);
  EXPECT_NO_THROW((void)Message::from_bytes(good));
}

TEST(Message, FromBytesRejectsInconsistentDimAndCount) {
  // Header fields per the documented layout: dim at offset 8, count at 16.
  auto with_u64 = [](std::vector<std::uint8_t> frame, std::size_t offset,
                     std::uint64_t value) {
    for (std::size_t b = 0; b < 8; ++b) {
      frame[offset + b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
    return frame;
  };
  const auto v = random_values(8, 11);
  const Message dense = Message::encode_dense(v, DType::kFloat64);
  const std::vector<std::uint8_t> d(dense.bytes().begin(),
                                    dense.bytes().end());
  EXPECT_THROW((void)Message::from_bytes(with_u64(d, 8, 0)), Error);
  EXPECT_THROW((void)Message::from_bytes(with_u64(d, 16, 7)), Error);
  EXPECT_THROW((void)Message::from_bytes(with_u64(d, 8, 9)), Error);

  const std::vector<std::uint32_t> idx{0, 2};
  const std::vector<double> vals{1.0, 2.0};
  const Message sparse = Message::encode_sparse(4, idx, vals, DType::kFloat64);
  const std::vector<std::uint8_t> s(sparse.bytes().begin(),
                                    sparse.bytes().end());
  // count > dim, and a dim that puts index 2 out of range.
  EXPECT_THROW((void)Message::from_bytes(with_u64(s, 8, 1)), Error);
  EXPECT_THROW((void)Message::from_bytes(with_u64(s, 8, 2)), Error);
}

TEST(Message, FromBytesRejectsUnsortedSparseIndices) {
  const std::vector<std::uint32_t> idx{9, 3};  // descending: invalid
  const std::vector<double> vals{1.0, 2.0};
  // encode_sparse itself validates, so build a descending frame by
  // re-serializing a valid one with its index section swapped.
  const std::vector<std::uint32_t> ascending{3, 9};
  const Message valid =
      Message::encode_sparse(10, ascending, vals, DType::kFloat64);
  std::vector<std::uint8_t> wire(valid.bytes().begin(), valid.bytes().end());
  for (std::size_t b = 0; b < sizeof(std::uint32_t); ++b) {
    std::swap(wire[kHeaderBytes + b], wire[kHeaderBytes + 4 + b]);
  }
  EXPECT_THROW((void)Message::from_bytes(std::move(wire)), Error);
  EXPECT_THROW(
      (void)Message::encode_sparse(10, idx, vals, DType::kFloat64), Error);
}

TEST(Message, WireBytesFormulaMatchesSerializedSize) {
  for (const DType dtype :
       {DType::kFloat64, DType::kFloat32, DType::kInt8Block}) {
    for (const std::size_t n : {1u, 32u, 33u, 200u}) {
      const auto v = random_values(n, 17 + n);
      const Message dense = Message::encode_dense(v, dtype);
      EXPECT_EQ(dense.wire_size(), wire_bytes(dtype, n, n, false));
      EXPECT_EQ(dense.bytes().size(), dense.wire_size());
    }
  }
  // Sparse: 2 of 100 kept.
  const std::vector<std::uint32_t> idx{1, 50};
  const std::vector<double> vals{1.0, 2.0};
  const Message sp = Message::encode_sparse(100, idx, vals, DType::kFloat32);
  EXPECT_EQ(sp.wire_size(), wire_bytes(DType::kFloat32, 100, 2, true));
}

TEST(Message, ValidatesEncodeArguments) {
  EXPECT_THROW((void)Message::encode_dense({}, DType::kFloat64), Error);
  // Sparse index out of range and index/value length mismatch.
  const std::vector<std::uint32_t> out_of_range{4};
  const std::vector<std::uint32_t> two{0, 1};
  const std::vector<double> one{1.0};
  EXPECT_THROW(
      (void)Message::encode_sparse(4, out_of_range, one, DType::kFloat64),
      Error);
  EXPECT_THROW((void)Message::encode_sparse(4, two, one, DType::kFloat64),
               Error);
}

}  // namespace
}  // namespace fedvr::comm
