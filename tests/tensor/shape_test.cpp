#include "tensor/shape.h"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.h"

namespace fedvr::tensor {
namespace {

using fedvr::util::Error;

TEST(Shape, NumelMultipliesDims) {
  EXPECT_EQ(Shape({2, 3, 4}).numel(), 24u);
  EXPECT_EQ(Shape({7}).numel(), 7u);
  EXPECT_EQ(Shape({}).numel(), 1u);
}

TEST(Shape, EqualityComparesRankAndDims) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_FALSE(Shape({2, 3}) == Shape({3, 2}));
  EXPECT_FALSE(Shape({2, 3}) == Shape({2, 3, 1}));
}

TEST(Shape, IndexOutOfRankThrows) {
  const Shape s({2, 3});
  EXPECT_THROW((void)s[2], Error);
}

TEST(Shape, StrFormats) { EXPECT_EQ(Shape({2, 3}).str(), "[2, 3]"); }

TEST(Shape, RankAboveFourIsRejected) {
  // Always-on: the fixed-size dims array holds kMaxRank axes.
  EXPECT_THROW((void)Shape({1, 2, 3, 4, 5}), Error);
  EXPECT_EQ(Shape({1, 2, 3, 4}).rank(), Shape::kMaxRank);
}

TEST(Shape, DefaultIsRankZeroScalar) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1u);
  EXPECT_EQ(s.str(), "[]");
  EXPECT_EQ(s, Shape({}));
  EXPECT_THROW((void)s[0], Error);
}

TEST(Shape, ZeroExtentAxisHasNoElements) {
  EXPECT_EQ(Shape({4, 0, 3}).numel(), 0u);
  EXPECT_EQ(Shape({0}).numel(), 0u);
}

TEST(Shape, StreamsAsStr) {
  std::ostringstream os;
  os << Shape({8, 1, 28, 28});
  EXPECT_EQ(os.str(), "[8, 1, 28, 28]");
}

}  // namespace
}  // namespace fedvr::tensor
