#include "gter/graph/bipartite_graph.h"

#include "gter/common/metrics.h"
#include "gter/common/status.h"
#include "gter/text/string_metrics.h"

namespace gter {

BipartiteGraph BipartiteGraph::Build(const Dataset& dataset,
                                     const PairSpace& pairs, PtMode pt_mode) {
  GTER_TRACE_SCOPE("bipartite/build");
  BipartiteGraph g(pt_mode);
  g.EnsureTerms(dataset.vocabulary().size());
  for (const Record& rec : dataset.records()) g.AddRecordTerms(rec.terms);

  // Shared terms of every pair and each term's posting degree first, so the
  // appends below fill exactly-sized vectors with no growth slack.
  const size_t num_pairs = pairs.size();
  std::vector<std::vector<TermId>> shared(num_pairs);
  std::vector<size_t> degree(g.num_terms(), 0);
  size_t num_edges = 0;
  for (PairId p = 0; p < num_pairs; ++p) {
    const RecordPair& rp = pairs.pair(p);
    shared[p] = SortedIntersection(dataset.record(rp.a).terms,
                                   dataset.record(rp.b).terms);
    for (TermId t : shared[p]) ++degree[t];
    num_edges += shared[p].size();
  }
  g.pair_offsets_.reserve(num_pairs + 1);
  g.pair_terms_.reserve(num_edges);
  for (size_t t = 0; t < g.num_terms(); ++t) {
    g.term_pairs_[t].reserve(degree[t]);
  }
  // PairSpace only materializes sharers, so AddPair's non-empty check
  // holds.
  for (PairId p = 0; p < num_pairs; ++p) g.AddPair(shared[p]);
  return g;
}

void BipartiteGraph::EnsureTerms(size_t num_terms) {
  if (num_terms <= term_pairs_.size()) return;
  term_pairs_.resize(num_terms);
  nt_.resize(num_terms, 0);
}

void BipartiteGraph::AddRecordTerms(std::span<const TermId> terms) {
  for (TermId t : terms) {
    GTER_CHECK(t < nt_.size());
    ++nt_[t];
  }
}

PairId BipartiteGraph::AddPair(std::span<const TermId> shared_terms) {
  GTER_CHECK(!shared_terms.empty());
  const PairId p = static_cast<PairId>(num_pairs());
  pair_terms_.insert(pair_terms_.end(), shared_terms.begin(),
                     shared_terms.end());
  pair_offsets_.push_back(pair_terms_.size());
  for (TermId t : shared_terms) {
    GTER_CHECK(t < term_pairs_.size());
    term_pairs_[t].push_back(p);
  }
  return p;
}

}  // namespace gter
