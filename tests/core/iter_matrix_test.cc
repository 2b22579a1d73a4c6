// Theorem 1 (§V-D): the ITER update rules
//
//   y = Sᵀ x        (pair scores from term weights)
//   x = D⁻¹ S C y   (term weights from probability-weighted pair scores)
//
// compose into y ← (Sᵀ D⁻¹ S C) y, whose normalized iterates converge to the
// principal eigenvector of M = Sᵀ D⁻¹ S C. The power iteration below is the
// test oracle for that claim: Algorithm 1's sweep implementation must rank
// pairs and terms the way the stationary eigenvector does.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/random.h"
#include "gter/core/iter.h"
#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "gter/eval/spearman.h"

namespace gter {
namespace {

struct PowerIterationResult {
  /// Stationary pair-score vector y* (unit L2 norm), indexed by PairId.
  std::vector<double> pair_scores;
  /// x* = D⁻¹ S C y*, indexed by TermId.
  std::vector<double> term_weights;
  /// Rayleigh-quotient estimate of the principal eigenvalue of M.
  double eigenvalue = 0.0;
  /// ‖M y* − λ y*‖₂.
  double residual = 0.0;
  bool converged = false;
};

double Norm2(const std::vector<double>& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

/// Power iteration on M = Sᵀ D⁻¹ S C, where S is the term×pair incidence,
/// D = diag(P_t) and C = diag(edge_probability).
PowerIterationResult RunPowerIteration(
    const BipartiteGraph& graph, const std::vector<double>& edge_probability,
    size_t max_iterations = 500, double tolerance = 1e-12) {
  const size_t num_terms = graph.num_terms();
  const size_t num_pairs = graph.num_pairs();
  PowerIterationResult result;
  std::vector<double> x(num_terms, 0.0);
  const auto terms_from_pairs = [&](const std::vector<double>& y) {
    for (TermId t = 0; t < num_terms; ++t) {
      double acc = 0.0;
      for (PairId p : graph.PairsOfTerm(t)) acc += edge_probability[p] * y[p];
      x[t] = acc / graph.Pt(t);
    }
  };
  const auto apply = [&](const std::vector<double>& y,
                         std::vector<double>* out) {
    terms_from_pairs(y);
    for (PairId p = 0; p < num_pairs; ++p) {
      double acc = 0.0;
      for (TermId t : graph.TermsOfPair(p)) acc += x[t];
      (*out)[p] = acc;
    }
  };

  // A random non-negative start cannot be orthogonal to the non-negative
  // principal eigenvector.
  Rng rng(42);
  std::vector<double> y(num_pairs);
  for (double& v : y) v = rng.OpenUniformDouble();
  const double norm = Norm2(y);
  for (double& v : y) v /= norm;

  std::vector<double> next(num_pairs, 0.0);
  for (size_t iter = 0; iter < max_iterations; ++iter) {
    apply(y, &next);
    const double next_norm = Norm2(next);
    if (next_norm <= 0.0) break;
    double change = 0.0;
    for (PairId p = 0; p < num_pairs; ++p) {
      const double v = next[p] / next_norm;
      change += (v - y[p]) * (v - y[p]);
      y[p] = v;
    }
    result.eigenvalue = next_norm;  // Rayleigh quotient for unit y: ‖My‖
    if (std::sqrt(change) < tolerance) {
      result.converged = true;
      break;
    }
  }

  apply(y, &next);
  double residual_sq = 0.0;
  for (PairId p = 0; p < num_pairs; ++p) {
    const double d = next[p] - result.eigenvalue * y[p];
    residual_sq += d * d;
  }
  result.residual = std::sqrt(residual_sq);
  terms_from_pairs(y);
  result.term_weights = x;
  result.pair_scores = y;
  return result;
}

TEST(IterMatrixTest, OracleConvergesToEigenvector) {
  Dataset ds("test");
  ds.AddRecord(0, "anchor1 noise");
  ds.AddRecord(0, "anchor1 noise");
  ds.AddRecord(0, "anchor2 noise");
  ds.AddRecord(0, "anchor2 noise");
  ds.AddRecord(0, "noise misc1");
  ds.AddRecord(0, "noise misc2");
  PairSpace pairs = PairSpace::Build(ds);
  BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
  PowerIterationResult result =
      RunPowerIteration(graph, std::vector<double>(pairs.size(), 1.0));
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.eigenvalue, 0.0);
  EXPECT_LT(result.residual, 1e-9 * result.eigenvalue);
}

TEST(IterMatrixTest, AgreesWithSweepImplementationOnRanking) {
  // Algorithm 1 (with its per-sweep normalization) and the pure power
  // iteration converge to the same *ranking* of pairs and terms — the
  // normalization only reshapes magnitudes monotonically per sweep.
  auto data = GenerateBenchmark(BenchmarkKind::kRestaurant, 0.15, 5);
  RemoveFrequentTerms(&data.dataset);
  PairSpace pairs = PairSpace::Build(data.dataset);
  BipartiteGraph graph = BipartiteGraph::Build(data.dataset, pairs);
  std::vector<double> uniform(pairs.size(), 1.0);

  PowerIterationResult matrix = RunPowerIteration(graph, uniform);
  IterOptions sweep_options;
  sweep_options.normalization = IterNormalization::kL2;
  IterResult sweep = RunIter(graph, uniform, sweep_options).value();

  EXPECT_GT(SpearmanRho(matrix.pair_scores, sweep.pair_scores), 0.95);
  // Compare term rankings over terms that participate in pairs.
  std::vector<double> mx, sx;
  for (TermId t = 0; t < graph.num_terms(); ++t) {
    if (graph.PairsOfTerm(t).empty()) continue;
    mx.push_back(matrix.term_weights[t]);
    sx.push_back(sweep.term_weights[t]);
  }
  EXPECT_GT(SpearmanRho(mx, sx), 0.9);
}

}  // namespace
}  // namespace gter
