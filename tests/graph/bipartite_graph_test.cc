#include "gter/graph/bipartite_graph.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "gter/datagen/datagen.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

// Three records: 0 "a b", 1 "a c", 2 "b c" → pairs (0,1) via a,
// (0,2) via b, (1,2) via c.
struct Fixture {
  Dataset ds{"test"};
  Fixture() {
    ds.AddRecord(0, "a b");
    ds.AddRecord(0, "a c");
    ds.AddRecord(0, "b c");
  }
};

TEST(BipartiteGraphTest, StructureMatchesSharedTerms) {
  Fixture f;
  PairSpace pairs = PairSpace::Build(f.ds);
  BipartiteGraph graph = BipartiteGraph::Build(f.ds, pairs);
  EXPECT_EQ(graph.num_pairs(), 3u);
  EXPECT_EQ(graph.num_terms(), f.ds.vocabulary().size());
  EXPECT_EQ(graph.num_edges(), 3u);  // each pair shares exactly one term

  PairId p01 = pairs.Find(0, 1);
  auto terms = graph.TermsOfPair(p01);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0], f.ds.vocabulary().Lookup("a"));
}

TEST(BipartiteGraphTest, TermToPairAdjacency) {
  Fixture f;
  PairSpace pairs = PairSpace::Build(f.ds);
  BipartiteGraph graph = BipartiteGraph::Build(f.ds, pairs);
  TermId a = f.ds.vocabulary().Lookup("a");
  auto adj = graph.PairsOfTerm(a);
  ASSERT_EQ(adj.size(), 1u);
  EXPECT_EQ(adj[0], pairs.Find(0, 1));
}

TEST(BipartiteGraphTest, MultiTermPair) {
  Dataset ds("test");
  ds.AddRecord(0, "x y z");
  ds.AddRecord(0, "x y w");
  PairSpace pairs = PairSpace::Build(ds);
  BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
  auto terms = graph.TermsOfPair(0);
  EXPECT_EQ(terms.size(), 2u);  // x and y
  EXPECT_TRUE(std::is_sorted(terms.begin(), terms.end()));
}

TEST(BipartiteGraphTest, PaperPtFormula) {
  // Term "t" in 4 records → P_t = 4·3/2 = 6 regardless of materialized
  // pair count.
  Dataset ds("test");
  for (int i = 0; i < 4; ++i) ds.AddRecord(0, "t");
  PairSpace pairs = PairSpace::Build(ds);
  BipartiteGraph graph = BipartiteGraph::Build(ds, pairs, PtMode::kPaper);
  TermId t = ds.vocabulary().Lookup("t");
  EXPECT_DOUBLE_EQ(graph.Pt(t), 6.0);
  EXPECT_EQ(graph.Nt(t), 4u);
}

TEST(BipartiteGraphTest, ConnectedPairsPtMode) {
  // Two-source: term "t" in 2+2 records, but only 4 cross pairs exist.
  Dataset ds("two", 2);
  ds.AddRecord(0, "t");
  ds.AddRecord(0, "t");
  ds.AddRecord(1, "t");
  ds.AddRecord(1, "t");
  PairSpace pairs = PairSpace::Build(ds);
  ASSERT_EQ(pairs.size(), 4u);
  BipartiteGraph paper = BipartiteGraph::Build(ds, pairs, PtMode::kPaper);
  BipartiteGraph connected =
      BipartiteGraph::Build(ds, pairs, PtMode::kConnectedPairs);
  TermId t = ds.vocabulary().Lookup("t");
  EXPECT_DOUBLE_EQ(paper.Pt(t), 6.0);      // 4·3/2
  EXPECT_DOUBLE_EQ(connected.Pt(t), 4.0);  // materialized cross pairs
}

TEST(BipartiteGraphTest, PtFloorIsOne) {
  // df=1 terms form no pairs; P_t must stay ≥ 1 to be a safe denominator.
  Dataset ds("test");
  ds.AddRecord(0, "solo shared");
  ds.AddRecord(0, "shared");
  PairSpace pairs = PairSpace::Build(ds);
  BipartiteGraph graph = BipartiteGraph::Build(ds, pairs);
  TermId solo = ds.vocabulary().Lookup("solo");
  EXPECT_DOUBLE_EQ(graph.Pt(solo), 1.0);
  EXPECT_TRUE(graph.PairsOfTerm(solo).empty());
}

TEST(BipartiteGraphTest, AppendApiGrowthMatchesBuild) {
  // Grown record by record the way ResolverState does — terms as the
  // vocabulary reaches them, each record's N_t, then its pairs against
  // earlier records — the graph equals Build over the same pairs.
  Dataset data =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 0.12, 11).dataset;
  PairSpace pairs;
  for (RecordId b = 1; b < data.size(); ++b) {
    for (RecordId a = 0; a < b; ++a) {
      if (SortedIntersectionSize(data.record(a).terms,
                                 data.record(b).terms) > 0) {
        pairs.Append(a, b);
      }
    }
  }
  for (PtMode mode : {PtMode::kPaper, PtMode::kConnectedPairs}) {
    BipartiteGraph built = BipartiteGraph::Build(data, pairs, mode);
    BipartiteGraph grown(mode);
    PairId next = 0;
    for (RecordId r = 0; r < data.size(); ++r) {
      const Record& rec = data.record(r);
      for (TermId t : rec.terms) grown.EnsureTerms(t + 1);
      grown.AddRecordTerms(rec.terms);
      for (; next < pairs.size() && pairs.pair(next).b == r; ++next) {
        const RecordPair& rp = pairs.pair(next);
        ASSERT_EQ(grown.AddPair(SortedIntersection(
                      data.record(rp.a).terms, rec.terms)),
                  next);
      }
    }
    grown.EnsureTerms(data.vocabulary().size());
    ASSERT_EQ(next, pairs.size());
    ASSERT_EQ(grown.num_terms(), built.num_terms());
    ASSERT_EQ(grown.num_pairs(), built.num_pairs());
    ASSERT_EQ(grown.num_edges(), built.num_edges());
    for (TermId t = 0; t < built.num_terms(); ++t) {
      ASSERT_EQ(grown.Nt(t), built.Nt(t)) << t;
      ASSERT_EQ(grown.Pt(t), built.Pt(t)) << t;
      auto a = built.PairsOfTerm(t);
      auto b = grown.PairsOfTerm(t);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << t;
    }
    for (PairId p = 0; p < built.num_pairs(); ++p) {
      auto a = built.TermsOfPair(p);
      auto b = grown.TermsOfPair(p);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << p;
    }
  }
}

}  // namespace
}  // namespace gter
