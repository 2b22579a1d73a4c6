#include "gter/matrix/masked_multiply.h"

#include "gter/common/random.h"
#include "gter/matrix/gemm.h"

#include <gtest/gtest.h>

namespace gter {
namespace {

/// Random symmetric adjacency pattern over n nodes with edge prob `p`,
/// plus a transition matrix with the same structure.
struct Fixture {
  CsrMatrix pattern;
  CsrMatrix trans;
  size_t n;
};

Fixture MakeFixture(size_t n, double edge_prob, uint64_t seed) {
  Rng rng(seed);
  std::vector<CsrMatrix::Triplet> pat, tr;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (!rng.Bernoulli(edge_prob)) continue;
      pat.push_back({i, j, 1.0});
      pat.push_back({j, i, 1.0});
      double w1 = rng.OpenUniformDouble();
      double w2 = rng.OpenUniformDouble();
      tr.push_back({i, j, w1});
      tr.push_back({j, i, w2});
    }
  }
  Fixture f;
  f.n = n;
  f.pattern = CsrMatrix::FromTriplets(n, n, std::move(pat));
  f.trans = CsrMatrix::FromTriplets(n, n, std::move(tr));
  f.trans.NormalizeRows();
  return f;
}

TEST(MaskedMultiplyTest, CsrGatherMatchesDenseReference) {
  Fixture f = MakeFixture(25, 0.3, 17);
  Rng rng(13);
  std::vector<double> cur(f.pattern.nnz());
  for (auto& v : cur) v = rng.UniformDouble();

  // Reference through the dense formulation.
  DenseMatrix m(f.n, f.n, 0.0);
  ScatterToDense(f.pattern, cur.data(), m.data());
  DenseMatrix ref = Multiply(f.trans.ToDense(), m.Hadamard(f.pattern.ToDense()));

  std::vector<double> out(f.pattern.nnz(), -1.0);
  ComputeMaskedProductCsr(f.trans, cur.data(), f.pattern, out.data());
  size_t pos = 0;
  for (size_t i = 0; i < f.n; ++i) {
    for (uint32_t j : f.pattern.RowCols(i)) {
      EXPECT_NEAR(out[pos], ref(i, j), 1e-12) << i << "," << j;
      ++pos;
    }
  }
}

TEST(MaskedMultiplyTest, CsrGatherHandlesIsolatedRows) {
  // Node 2 is isolated; its (empty) pattern row must stay untouched and
  // gathering across it must not read out of range.
  CsrMatrix pattern =
      CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  CsrMatrix trans = CsrMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}});
  std::vector<double> cur = {0.5, 0.5};
  std::vector<double> out(2, -1.0);
  ComputeMaskedProductCsr(trans, cur.data(), pattern, out.data());
  // out[(0,1)] = trans[0,1] · prev[1,1] but (1,1) is off-pattern → 0.
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(MaskedMultiplyTest, ScatterOverwritesPatternPositions) {
  Fixture f = MakeFixture(10, 0.4, 11);
  std::vector<double> ones(f.pattern.nnz(), 1.0);
  std::vector<double> twos(f.pattern.nnz(), 2.0);
  std::vector<double> dense(f.n * f.n, 0.0);
  ScatterToDense(f.pattern, ones.data(), dense.data());
  ScatterToDense(f.pattern, twos.data(), dense.data());
  double total = 0.0;
  for (double v : dense) total += v;
  EXPECT_DOUBLE_EQ(total, 2.0 * static_cast<double>(f.pattern.nnz()));
}

}  // namespace
}  // namespace gter
