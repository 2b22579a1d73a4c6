// SIMD-vs-scalar differential tests for the dispatched compute core:
// packed GEMM (≤1e-12 relative, FMA-reassociated), the CSR masked-product
// kernel (bitwise — it shares the scalar summation order), the batched
// Jaro-Winkler (bitwise), ITER (bitwise at every level and thread count —
// it has one summation order), and the dispatch machinery itself.
// AVX2-dependent cases GTEST_SKIP on machines or builds without the level,
// so the suite passes everywhere.

#include <cmath>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/cpu.h"
#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/common/trace.h"
#include "gter/core/iter.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"
#include "gter/graph/bipartite_graph.h"
#include "gter/matrix/csr_matrix.h"
#include "gter/matrix/gemm.h"
#include "gter/matrix/masked_multiply.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

bool Avx2Available() { return DetectSimdLevel() >= SimdLevel::kAvx2; }

// ---------------------------------------------------------------------------
// Dispatch machinery.

TEST(SimdDispatch, ParseSimdLevel) {
  SimdLevel level;
  ASSERT_TRUE(ParseSimdLevel("scalar", &level));
  EXPECT_EQ(level, SimdLevel::kScalar);
  ASSERT_TRUE(ParseSimdLevel("avx2", &level));
  EXPECT_EQ(level, SimdLevel::kAvx2);
  ASSERT_TRUE(ParseSimdLevel("avx512", &level));
  EXPECT_EQ(level, SimdLevel::kAvx512);
  ASSERT_TRUE(ParseSimdLevel("auto", &level));
  EXPECT_EQ(level, DetectSimdLevel());
  EXPECT_FALSE(ParseSimdLevel("sse9", &level));
  EXPECT_FALSE(ParseSimdLevel("", &level));
}

TEST(SimdDispatch, LevelNamesRoundTrip) {
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx512), "avx512");
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    SimdLevel parsed;
    ASSERT_TRUE(ParseSimdLevel(SimdLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
}

TEST(SimdDispatch, ScopedLevelRestores) {
  const SimdLevel before = ActiveSimdLevel();
  {
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  EXPECT_EQ(ActiveSimdLevel(), before);
}

TEST(SimdDispatch, SetSimdLevelClampsToDetected) {
  const SimdLevel before = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kAvx2);
  // Requesting avx2 on a scalar-only machine degrades instead of crashing.
  EXPECT_LE(ActiveSimdLevel(), DetectSimdLevel());
  // Same for avx512 on an avx2-only (or scalar-only) machine: the request
  // clamps to the detected tier, it never selects unrunnable kernels.
  SetSimdLevel(SimdLevel::kAvx512);
  EXPECT_LE(ActiveSimdLevel(), DetectSimdLevel());
  {
    ScopedSimdLevel scoped(SimdLevel::kAvx512);
    EXPECT_LE(ActiveSimdLevel(), DetectSimdLevel());
  }
  SetSimdLevel(before);
}

TEST(SimdDispatch, CpuFeaturesSane) {
  const CpuFeatures& f = DetectCpuFeatures();
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_TRUE(f.sse2);  // x86-64 baseline
#endif
  // avx2 without avx would mean the XGETBV OS check is wrong.
  if (f.avx2) {
    EXPECT_TRUE(f.avx);
  }
  EXPECT_FALSE(CpuFeatureString().empty());
}

TEST(SimdDispatch, EmitCpuInfoRecordsGaugesAndTraceLabel) {
  MetricsRegistry metrics;
  TraceRecorder trace;
  EmitCpuInfo(&metrics, &trace);
  const CpuFeatures& f = DetectCpuFeatures();
  EXPECT_EQ(metrics.Gauge("cpu/avx2"), f.avx2 ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/fma"), f.fma ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512f"), f.avx512f ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512bw"), f.avx512bw ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512dq"), f.avx512dq ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512vl"), f.avx512vl ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("cpu/avx512vpopcntdq"),
            f.avx512vpopcntdq ? 1.0 : 0.0);
  EXPECT_EQ(metrics.Gauge("simd/level"),
            static_cast<double>(ActiveSimdLevel()));
  const std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("process_labels"), std::string::npos);
  EXPECT_NE(json.find("simd="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Packed GEMM.

DenseMatrix RandomMatrix(size_t rows, size_t cols, Rng* rng) {
  DenseMatrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng->UniformDouble(-1.0, 1.0);
  }
  return m;
}

void ExpectGemmClose(const DenseMatrix& ref, const DenseMatrix& got) {
  ASSERT_EQ(ref.rows(), got.rows());
  ASSERT_EQ(ref.cols(), got.cols());
  for (size_t r = 0; r < ref.rows(); ++r) {
    for (size_t c = 0; c < ref.cols(); ++c) {
      const double tolerance =
          1e-12 * std::max(1.0, std::fabs(ref(r, c)));
      ASSERT_NEAR(got(r, c), ref(r, c), tolerance) << "at (" << r << ", " << c
                                                   << ")";
    }
  }
}

// (m, k, n) shapes straddling every packing edge: the 4-row micropanel, the
// 8-column panel, the 64-row MC block, and the 256-deep KC slab.
class GemmDifferential
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {};

TEST_P(GemmDifferential, PackedAvx2MatchesScalarWithinTolerance) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  auto [m, k, n] = GetParam();
  Rng rng(m * 131 + k * 17 + n);
  DenseMatrix a = RandomMatrix(m, k, &rng);
  DenseMatrix b = RandomMatrix(k, n, &rng);

  DenseMatrix ref, got;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    Gemm(a, b, &ref);
  }
  {
    ScopedSimdLevel avx2(SimdLevel::kAvx2);
    Gemm(a, b, &got);
  }
  ExpectGemmClose(ref, got);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmDifferential,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(4, 8, 8), std::make_tuple(5, 9, 17),
                      std::make_tuple(63, 64, 65), std::make_tuple(64, 64, 64),
                      std::make_tuple(65, 257, 9), std::make_tuple(70, 31, 70),
                      std::make_tuple(130, 300, 66)));

TEST(GemmSimd, SparseRowsSurviveThePanelSkip) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  // Rows 0-3 all zero, row 4 dense: the all-zero micropanel must be
  // skipped without corrupting C, and the mixed panel must still compute.
  Rng rng(5);
  DenseMatrix a(9, 300, 0.0);
  for (size_t c = 0; c < 300; ++c) a(4, c) = rng.UniformDouble(-1.0, 1.0);
  for (size_t c = 0; c < 300; c += 3) a(8, c) = rng.UniformDouble(-1.0, 1.0);
  DenseMatrix b = RandomMatrix(300, 33, &rng);
  DenseMatrix ref, got;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    Gemm(a, b, &ref);
  }
  {
    ScopedSimdLevel avx2(SimdLevel::kAvx2);
    Gemm(a, b, &got);
  }
  ExpectGemmClose(ref, got);
  for (size_t c = 0; c < 33; ++c) ASSERT_EQ(got(0, c), 0.0);
}

TEST(GemmSimd, PackedKernelIsThreadCountInvariant) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  Rng rng(9);
  DenseMatrix a = RandomMatrix(150, 90, &rng);
  DenseMatrix b = RandomMatrix(90, 70, &rng);
  ScopedSimdLevel avx2(SimdLevel::kAvx2);
  DenseMatrix serial, parallel;
  Gemm(a, b, &serial);
  ThreadPool pool(4);
  Gemm(a, b, &parallel, ExecContext::WithPool(&pool));
  // Row blocks are computed independently with a fixed k-order, so the
  // pool changes nothing — bit for bit.
  EXPECT_EQ(serial.MaxAbsDiff(parallel), 0.0);
}

// ---------------------------------------------------------------------------
// Masked-product kernel: bitwise contract.

CsrMatrix ErdosRenyiCsr(size_t n, size_t edges_per_node, uint64_t seed) {
  Rng rng(seed);
  std::vector<CsrMatrix::Triplet> triplets;
  for (uint32_t i = 0; i < n; ++i) {
    for (size_t e = 0; e < edges_per_node; ++e) {
      uint32_t j = static_cast<uint32_t>(rng.NextBounded(n));
      if (j == i) continue;
      triplets.push_back({i, j, rng.OpenUniformDouble()});
      triplets.push_back({j, i, rng.OpenUniformDouble()});
    }
  }
  return CsrMatrix::FromTriplets(n, n, triplets);
}

class MaskedProductDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MaskedProductDifferential, Avx2MatchesScalarBitwise) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2";
  const uint64_t seed = GetParam();
  const size_t n = 400;
  CsrMatrix trans = ErdosRenyiCsr(n, 6, seed);
  trans.NormalizeRows();
  CsrMatrix pattern = trans;  // same structure
  Rng rng(seed + 99);
  std::vector<double> prev(pattern.nnz());
  for (double& v : prev) v = rng.OpenUniformDouble();

  std::vector<double> ref(pattern.nnz()), got(pattern.nnz());
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    ComputeMaskedProductCsr(trans, prev.data(), pattern, ref.data());
  }
  {
    ScopedSimdLevel avx2(SimdLevel::kAvx2);
    ComputeMaskedProductCsr(trans, prev.data(), pattern, got.data());
  }
  // The AVX2 twin vectorizes only exact products and copies; the adds stay
  // scalar in the scalar order, so equality is exact.
  for (size_t e = 0; e < pattern.nnz(); ++e) {
    ASSERT_EQ(got[e], ref[e]) << "entry " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaskedProductDifferential,
                         ::testing::Values(11, 12, 13));

// ---------------------------------------------------------------------------
// RunIter end-to-end.

struct IterWorld {
  Dataset ds{"test"};
  PairSpace pairs;
  BipartiteGraph graph;
  std::vector<double> probability;

  /// Synthetic records of random tokens: adjacency sizes vary, so both the
  /// gather-reduce tails and main loops run. Scale `num_records`/`vocab`
  /// up to push num_terms past one reduction chunk (4096).
  explicit IterWorld(uint64_t seed, size_t num_records = 60,
                     size_t vocab = 150) {
    Rng rng(seed);
    for (size_t r = 0; r < num_records; ++r) {
      std::string text;
      const size_t k = 2 + rng.NextBounded(10);
      for (size_t t = 0; t < k; ++t) {
        if (!text.empty()) text += ' ';
        text += 't';
        text += std::to_string(rng.NextBounded(vocab));
      }
      ds.AddRecord(0, text);
    }
    pairs = PairSpace::Build(ds);
    graph = BipartiteGraph::Build(ds, pairs);
    probability.resize(pairs.size());
    for (double& p : probability) p = rng.UniformDouble();
  }
};

// ITER accumulates every gather left to right and reduces over fixed
// chunks, whatever the SIMD level or thread count: each configuration must
// reproduce the serial scalar run bit for bit.
const SimdLevel kAllLevels[] = {SimdLevel::kScalar, SimdLevel::kAvx2,
                                SimdLevel::kAvx512};

TEST(IterSimd, RunIsBitIdenticalAcrossLevelsAndThreadCounts) {
  IterWorld world(42);
  IterOptions options;
  options.max_iterations = 30;
  options.grain = 16;  // several chunks per parallel sweep
  IterResult ref;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    ref = RunIter(world.graph, world.probability, options).value();
  }
  ThreadPool pool(4);
  for (SimdLevel level : kAllLevels) {
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ScopedSimdLevel scoped(level);
      IterResult got = RunIter(world.graph, world.probability, options,
                               ExecContext::WithPool(threads))
                           .value();
      const std::string where = std::string(SimdLevelName(level)) +
                                (threads != nullptr ? " pool" : " serial");
      EXPECT_EQ(got.term_weights, ref.term_weights) << where;
      EXPECT_EQ(got.pair_scores, ref.pair_scores) << where;
      EXPECT_EQ(got.iterations, ref.iterations) << where;
    }
  }
}

TEST(IterSimd, DirtyRunIsBitIdenticalAcrossLevelsAndThreadCounts) {
  IterWorld world(42);
  const BipartiteGraph& graph = world.graph;
  // Three terms with adjacent pairs, re-perturbed after the first converge
  // so the second run goes through the worklist rather than full sweeps.
  std::vector<TermId> perturbed;
  for (TermId t = 0; t < graph.num_terms() && perturbed.size() < 3; ++t) {
    if (!graph.PairsOfTerm(t).empty()) perturbed.push_back(t);
  }
  ASSERT_EQ(perturbed.size(), 3u);
  IterDirtyOptions options;
  options.grain = 16;
  // Full-frontier build from a constant start, then the worklist
  // re-converge; returns the final weights and scores.
  const auto run = [&](const ExecContext& ctx) {
    std::vector<TermId> all(graph.num_terms());
    std::iota(all.begin(), all.end(), TermId{0});
    std::vector<double> x(graph.num_terms(), 0.5);
    std::vector<double> s(graph.num_pairs(), 0.0);
    EXPECT_TRUE(RunIterDirty(graph, all, options, &x, &s, ctx).ok());
    for (TermId t : perturbed) x[t] *= 0.5;
    EXPECT_TRUE(RunIterDirty(graph, perturbed, options, &x, &s, ctx).ok());
    return std::make_pair(x, s);
  };
  std::pair<std::vector<double>, std::vector<double>> ref;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    ref = run(DefaultExecContext());
  }
  ThreadPool pool(4);
  for (SimdLevel level : kAllLevels) {
    for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
      ScopedSimdLevel scoped(level);
      auto got = run(ExecContext::WithPool(threads));
      const std::string where = std::string(SimdLevelName(level)) +
                                (threads != nullptr ? " pool" : " serial");
      EXPECT_EQ(got.first, ref.first) << "weights, " << where;
      EXPECT_EQ(got.second, ref.second) << "scores, " << where;
    }
  }
}

TEST(IterSimd, L2NormalizationParallelReductionIsDeterministic) {
  IterWorld world(13);
  IterOptions options;
  options.normalization = IterNormalization::kL2;
  options.max_iterations = 15;
  ThreadPool pool(3);
  IterResult serial = RunIter(world.graph, world.probability, options).value();
  IterResult parallel = RunIter(world.graph, world.probability, options,
                                ExecContext::WithPool(&pool))
                            .value();
  EXPECT_EQ(serial.term_weights, parallel.term_weights);
}

TEST(IterSimd, MultiChunkReductionsAreThreadCountInvariant) {
  // Enough distinct terms that the convergence-delta / L2-norm reductions
  // span several 4096-wide chunks — the parallel partial-sum path proper.
  IterWorld world(29, /*num_records=*/1200, /*vocab=*/12000);
  ASSERT_GT(world.graph.num_terms(), 4096u);
  IterOptions options;
  options.normalization = IterNormalization::kL2;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  IterResult serial = RunIter(world.graph, world.probability, options).value();
  ThreadPool pool(5);
  IterResult parallel = RunIter(world.graph, world.probability, options,
                                ExecContext::WithPool(&pool))
                            .value();
  EXPECT_EQ(serial.term_weights, parallel.term_weights);
  EXPECT_EQ(serial.pair_scores, parallel.pair_scores);
}

// ---------------------------------------------------------------------------
// Batched Jaro-Winkler.

TEST(JaroWinklerBatch, BitIdenticalToPerCallEntryPoint) {
  const std::vector<std::string> candidates = {
      "",           "arnie",     "arnie mortons", "morton arnies",
      "campanile",  "champagne", "panasonic",     "pansonic",
      "x",          "arnie mortons of chicago 435 s la cienega blvd"};
  std::vector<double> batch;
  for (const char* query :
       {"arnie mortons", "campanile", "", "z", "panasonic pslx350h"}) {
    JaroWinklerSimilarityBatch(query, candidates, &batch);
    ASSERT_EQ(batch.size(), candidates.size());
    for (size_t j = 0; j < candidates.size(); ++j) {
      ASSERT_EQ(batch[j], JaroWinklerSimilarity(query, candidates[j]))
          << "query '" << query << "' candidate " << j;
    }
  }
}

TEST(JaroWinklerBatch, EmptyCandidateList) {
  std::vector<double> out(3, -1.0);
  JaroWinklerSimilarityBatch("abc", {}, &out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace gter
