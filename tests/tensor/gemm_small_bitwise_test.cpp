// Bit-for-bit pin of the small-product GEMM path (m * n * k below 32^3).
// The register-tiled core must reproduce, in every bit, the ikj triple
// loop it replaced: same per-element operation sequence (beta first, then
// C_ij += (alpha * A_ip) * B_pj for p ascending), same FMA contraction in
// the runtime-dispatched clone. The reference below is that loop verbatim,
// compiled under the same FEDVR_KERNEL_CLONES attribute, so in builds with
// clones both sides run the x86-64-v3 (FMA) variant on capable hosts and in
// sanitizer builds both run the portable one.
#include <algorithm>
#include <cstring>
#include <iterator>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/kernel_dispatch.h"
#include "tensor/kernels.h"
#include "util/rng.h"

namespace fedvr::tensor {
namespace {

// The pre-register-tiling small-path core: C (m x n, row stride ldc) +=
// alpha * A (m x k, packed) * B (k x n, packed).
FEDVR_KERNEL_CLONES
void reference_core(std::size_t m, std::size_t n, std::size_t k, double alpha,
                    const double* a, const double* b, std::span<double> c,
                    std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    double* c_row = c.data() + i * ldc;
    const double* a_row = a + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const double a_ip = alpha * a_row[p];
      const double* b_row = b + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

// op(M) (rows x cols) packed row-major from storage with row stride ld.
std::vector<double> packed_op(Trans t, std::size_t rows, std::size_t cols,
                              const std::vector<double>& m, std::size_t ld) {
  std::vector<double> out(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      out[i * cols + j] = t == Trans::kNo ? m[i * ld + j] : m[j * ld + i];
    }
  }
  return out;
}

// gemm()'s beta step followed by the reference core.
void reference_gemm(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, double alpha, const std::vector<double>& a,
                    std::size_t lda, const std::vector<double>& b,
                    std::size_t ldb, double beta, std::vector<double>& c,
                    std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    double* row = c.data() + i * ldc;
    if (beta == 0.0) {
      std::fill(row, row + n, 0.0);
    } else if (beta != 1.0) {
      for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
  if (alpha == 0.0 || m == 0 || n == 0 || k == 0) return;
  const auto ap = packed_op(ta, m, k, a, lda);
  const auto bp = packed_op(tb, k, n, b, ldb);
  reference_core(m, n, k, alpha, ap.data(), bp.data(), c, ldc);
}

struct Case {
  std::size_t m, n, k;
};

// Coverage the sweep must reach, counted as it runs.
struct Coverage {
  std::size_t cases = 0;
  std::size_t n_not_mult4 = 0;
  std::size_t n_mult4_not_mult8 = 0;
  std::size_t m_not_mult4 = 0;
  std::size_t strided = 0;
};

void check_case(util::Rng& rng, const Case& s, Trans ta, Trans tb,
                double alpha, double beta, std::size_t extra,
                Coverage& cov) {
  const std::size_t a_rows = ta == Trans::kNo ? s.m : s.k;
  const std::size_t a_cols = ta == Trans::kNo ? s.k : s.m;
  const std::size_t b_rows = tb == Trans::kNo ? s.k : s.n;
  const std::size_t b_cols = tb == Trans::kNo ? s.n : s.k;
  const std::size_t lda = a_cols + extra;
  const std::size_t ldb = b_cols + extra;
  const std::size_t ldc = s.n + extra;
  std::vector<double> a(a_rows * lda), b(b_rows * ldb), c(s.m * ldc);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto& v : c) v = rng.normal();
  std::vector<double> want = c;
  reference_gemm(ta, tb, s.m, s.n, s.k, alpha, a, lda, b, ldb, beta, want,
                 ldc);
  if (extra == 0) {
    gemm_packed(ta, tb, s.m, s.n, s.k, alpha, a, b, beta, c);
  } else {
    gemm(ta, tb, s.m, s.n, s.k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
  ASSERT_EQ(std::memcmp(c.data(), want.data(), c.size() * sizeof(double)), 0)
      << "m=" << s.m << " n=" << s.n << " k=" << s.k
      << " ta=" << static_cast<int>(ta) << " tb=" << static_cast<int>(tb)
      << " alpha=" << alpha << " beta=" << beta << " extra=" << extra;
  ++cov.cases;
  cov.n_not_mult4 += s.n % 4 != 0;
  cov.n_mult4_not_mult8 += s.n % 4 == 0 && s.n % 8 != 0;
  cov.m_not_mult4 += s.m % 4 != 0;
  cov.strided += extra != 0;
}

// Every transpose combination x alpha in {1, random} x beta in {0, 1,
// random}, half through gemm_packed and half through gemm with padded
// leading dimensions (ldc > n).
void sweep(util::Rng& rng, const Case& s, Coverage& cov) {
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      for (const double alpha : {1.0, rng.uniform(-2.0, 2.0)}) {
        for (const double beta : {0.0, 1.0, rng.uniform(-2.0, 2.0)}) {
          const std::size_t extra = rng.below(2) == 0 ? 0 : 1 + rng.below(5);
          check_case(rng, s, ta, tb, alpha, beta, extra, cov);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(GemmSmallBitwise, MatchesTripleLoopOnModelShapes) {
  // Logistic regression's forward (B x classes x dim), dW (classes x dim x
  // B) and dx (B x dim x classes) products, plus tile-edge shapes.
  const Case shapes[] = {{32, 10, 60}, {10, 60, 32}, {32, 60, 10},
                         {1, 1, 1},    {4, 8, 1},    {5, 9, 3},
                         {3, 7, 31},   {7, 13, 17},  {31, 31, 31}};
  util::Rng rng(1401);
  Coverage cov;
  for (const Case& s : shapes) {
    sweep(rng, s, cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(cov.cases, std::size(shapes) * 24);
}

TEST(GemmSmallBitwise, MatchesTripleLoopOnRandomShapes) {
  util::Rng rng(1402);
  Coverage cov;
  std::size_t shapes = 0;
  while (shapes < 150) {
    const Case s{1 + rng.below(40), 1 + rng.below(40), 1 + rng.below(64)};
    if (s.m * s.n * s.k >= 32 * 32 * 32) continue;  // blocked path
    ++shapes;
    sweep(rng, s, cov);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(cov.cases, 150U * 24);
  EXPECT_GT(cov.n_not_mult4, 0U);
  EXPECT_GT(cov.n_mult4_not_mult8, 0U);
  EXPECT_GT(cov.m_not_mult4, 0U);
  EXPECT_GT(cov.strided, 0U);
}

}  // namespace
}  // namespace fedvr::tensor
