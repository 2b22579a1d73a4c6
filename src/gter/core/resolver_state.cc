#include "gter/core/resolver_state.h"

#include <algorithm>
#include <utility>

#include "gter/common/metrics.h"
#include "gter/common/status.h"
#include "gter/graph/union_find.h"
#include "gter/text/string_metrics.h"

namespace gter {
namespace {

// Weight every term starts from. The prob ≡ 1 logistic ITER map has a
// single positive attractor, reached from any positive start; a constant
// (rather than RunIter's random init) keeps the batch and streamed arms
// trivially comparable.
constexpr double kInitialWeight = 0.5;

}  // namespace

ResolverState::ResolverState(Dataset* dataset, ResolverStateOptions options)
    : dataset_(dataset), options_(options), graph_(options.pt_mode) {
  GTER_CHECK(dataset_ != nullptr);
  GrowToVocabulary();
}

void ResolverState::GrowToVocabulary() {
  const size_t vocab = dataset_->vocabulary().size();
  if (vocab <= graph_.num_terms()) return;
  graph_.EnsureTerms(vocab);
  // New terms start at the positive constant like everyone else: the
  // logistic map has one positive attractor, so the value is free — and a
  // term only ever seen in one record has no pairs, so its first sweep
  // parks it at 0 anyway.
  x_.resize(vocab, kInitialWeight);
  inverted_.resize(vocab);
}

void ResolverState::StructuralIngest(RecordId r) {
  GTER_CHECK(r == ingested_records_);  // strict id order
  const Record& rec = dataset_->record(r);
  GrowToVocabulary();
  graph_.AddRecordTerms(rec.terms);
  pairs_of_record_.emplace_back();
  best_.push_back(0.0);

  // Neighbor discovery through the inverted index: every already-resolved
  // record sharing ≥ 1 term. Postings are scanned before the upsert, so a
  // record never pairs with itself.
  std::vector<RecordId> neighbors;
  for (TermId t : rec.terms) {
    neighbors.insert(neighbors.end(), inverted_[t].begin(),
                     inverted_[t].end());
  }
  std::sort(neighbors.begin(), neighbors.end());
  neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                  neighbors.end());

  const bool two_source = dataset_->num_sources() == 2;
  for (RecordId b : neighbors) {
    if (two_source && dataset_->record(b).source == rec.source) continue;
    std::vector<TermId> shared =
        SortedIntersection(rec.terms, dataset_->record(b).terms);
    const PairId p = pairs_.Append(b, r);
    const PairId g = graph_.AddPair(shared);
    GTER_CHECK(p == g);
    s_.push_back(0.0);
    probability_.push_back(0.0);
    matches_.push_back(false);
    pairs_of_record_[b].push_back(p);
    pairs_of_record_[r].push_back(p);
  }

  // x = 0 is a fixed point of the map too. A term parked at 0 (it had no
  // pairs) whose new pairs' other terms also sit at 0 would stay there,
  // while a batch build from kInitialWeight reaches the positive root, so
  // it restarts from kInitialWeight. Its stale scores are refreshed by the
  // converge: the record's terms are the dirty frontier below.
  for (TermId t : rec.terms) {
    if (x_[t] == 0.0 && !graph_.PairsOfTerm(t).empty()) {
      x_[t] = kInitialWeight;
    }
  }

  // Posting upsert: r is the largest id, so postings stay sorted.
  for (TermId t : rec.terms) inverted_[t].push_back(r);

  // The record's terms are the invalidated frontier: each gained a record
  // (N_t — and P_t in kPaper mode — changed) and possibly new pairs.
  pending_dirty_.insert(pending_dirty_.end(), rec.terms.begin(),
                        rec.terms.end());
  ingested_records_ = r + 1;
  ++version_;
}

double ResolverState::PairProbabilityOf(PairId p) const {
  const RecordPair& rp = pairs_.pair(p);
  const double denom = std::max(best_[rp.a], best_[rp.b]);
  return denom > 0.0 ? s_[p] / denom : 0.0;
}

void ResolverState::RefreshDecisions(
    const std::vector<PairId>& touched_pairs) {
  // Dense fast path: when most scores moved (the full-resweep regime —
  // every batch build lands here), the sparse bookkeeping below would
  // sort two ids per touched pair just to rediscover "everything". One
  // sequential pass over the pair table is cheaper and exact.
  if (touched_pairs.size() >= pairs_.size() / 2) {
    std::fill(best_.begin(), best_.end(), 0.0);
    const size_t num_pairs = pairs_.size();
    for (PairId p = 0; p < num_pairs; ++p) {
      const RecordPair& rp = pairs_.pair(p);
      best_[rp.a] = std::max(best_[rp.a], s_[p]);
      best_[rp.b] = std::max(best_[rp.b], s_[p]);
    }
    matched_count_ = 0;
    for (PairId p = 0; p < num_pairs; ++p) {
      probability_[p] = PairProbabilityOf(p);
      matches_[p] = probability_[p] >= options_.eta;
      matched_count_ += matches_[p] ? 1 : 0;
    }
    RebuildClusters();
    return;
  }

  // Records whose reciprocal-best denominator may have moved: endpoints of
  // every pair whose score changed.
  std::vector<RecordId> cand;
  cand.reserve(touched_pairs.size() * 2);
  for (PairId p : touched_pairs) {
    cand.push_back(pairs_.pair(p).a);
    cand.push_back(pairs_.pair(p).b);
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

  std::vector<RecordId> rescaled;
  for (RecordId r : cand) {
    double b = 0.0;
    for (PairId p : pairs_of_record_[r]) b = std::max(b, s_[p]);
    if (b != best_[r]) {
      best_[r] = b;
      rescaled.push_back(r);
    }
  }

  // Pairs to rescore: the touched scores plus every pair of a record whose
  // denominator changed.
  std::vector<PairId> rescore(touched_pairs);
  for (RecordId r : rescaled) {
    rescore.insert(rescore.end(), pairs_of_record_[r].begin(),
                   pairs_of_record_[r].end());
  }
  std::sort(rescore.begin(), rescore.end());
  rescore.erase(std::unique(rescore.begin(), rescore.end()), rescore.end());

  bool flips = false;
  for (PairId p : rescore) {
    probability_[p] = PairProbabilityOf(p);
    const bool match = probability_[p] >= options_.eta;
    if (match != matches_[p]) {
      flips = true;
      matched_count_ += match ? 1 : -1;
      matches_[p] = match;
    }
  }

  if (flips || cluster_of_.size() != ingested_records_) RebuildClusters();
}

void ResolverState::RebuildClusters() {
  UnionFind uf(ingested_records_);
  const size_t num_pairs = pairs_.size();
  for (PairId p = 0; p < num_pairs; ++p) {
    if (!matches_[p]) continue;
    const RecordPair& rp = pairs_.pair(p);
    uf.Union(rp.a, rp.b);
  }
  cluster_of_ = uf.ComponentLabels();
  cluster_members_.assign(uf.num_components(), {});
  for (RecordId r = 0; r < ingested_records_; ++r) {
    cluster_members_[cluster_of_[r]].push_back(r);
  }
}

Status ResolverState::ConvergeAndRefresh(const ExecContext& ctx) {
  std::vector<TermId> dirty;
  if (pending_full_) {
    dirty.resize(graph_.num_terms());
    for (size_t t = 0; t < dirty.size(); ++t) {
      dirty[t] = static_cast<TermId>(t);
    }
  } else {
    dirty = pending_dirty_;
  }

  ++dirty_reiter_runs_;
  MetricsRegistry* metrics = ctx.metrics_or_ambient();
  if (metrics != nullptr) metrics->AddCounter("ingest/dirty_reiter_runs");

  Result<IterDirtyResult> swept =
      RunIterDirty(graph_, dirty, options_.iter, &x_, &s_, ctx);
  if (!swept.ok()) {
    // Weights are mid-flight: scores of pairs adjacent to moved terms may
    // be stale. Escalate the resume to a full frontier — correct from any
    // intermediate state, and cancellation is the rare path.
    pending_full_ = true;
    return swept.status();
  }
  pending_dirty_.clear();
  pending_full_ = false;
  last_converge_sweeps_ = swept.value().sweeps;
  last_used_full_ = swept.value().used_full_resweep;
  if (swept.value().used_full_resweep) {
    ++full_resweeps_;
    if (metrics != nullptr) metrics->AddCounter("ingest/full_resweeps");
  }
  if (swept.value().stall_escalated) ++stall_escalations_;
  subsystem_solves_ += swept.value().subsystem_solves;
  if (metrics != nullptr) {
    metrics->SetGauge("ingest/last_converge_sweeps",
                      static_cast<double>(swept.value().sweeps));
  }

  {
    ScopedTimer t2(metrics, nullptr, "resolver_state/refresh_decisions");
    RefreshDecisions(swept.value().touched_pairs);
  }
  if (metrics != nullptr) {
    metrics->SetGauge("ingest/last_touched_pairs",
                      static_cast<double>(swept.value().touched_pairs.size()));
  }
  ++version_;
  return Status::OK();
}

Status ResolverState::BuildBatch(const ExecContext& ctx,
                                 size_t limit_records) {
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  MetricsRegistry* metrics = ctx.metrics_or_ambient();
  TraceRecorder* recorder = ctx.trace_or_ambient();
  ScopedTimer timer(metrics, recorder, "resolver_state/build");

  const size_t n = std::min(limit_records, dataset_->size());
  while (ingested_records_ < n) {
    if (ingested_records_ % 256 == 0) {
      GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    }
    StructuralIngest(static_cast<RecordId>(ingested_records_));
  }
  return ConvergeAndRefresh(ctx);
}

Result<IngestStats> ResolverState::Ingest(uint32_t source,
                                          std::string raw_text,
                                          const ExecContext& ctx) {
  // Poll before mutating anything: a k=0 cancel must leave the state (and
  // the dataset) untouched.
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  if (source >= dataset_->num_sources()) {
    return Status::InvalidArgument("source out of range");
  }
  GTER_CHECK(ingested_records_ == dataset_->size());  // no unresolved tail
  dataset_->AddRecord(source, std::move(raw_text));
  return IngestExisting(ctx);
}

Result<IngestStats> ResolverState::IngestExisting(const ExecContext& ctx) {
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  GTER_CHECK(ingested_records_ < dataset_->size());
  MetricsRegistry* metrics = ctx.metrics_or_ambient();
  TraceRecorder* recorder = ctx.trace_or_ambient();
  ScopedTimer timer(metrics, recorder, "resolver_state/ingest");

  const RecordId id = static_cast<RecordId>(ingested_records_);
  IngestStats stats;
  stats.record = id;
  const size_t terms_before = graph_.num_terms();
  const size_t pairs_before = pairs_.size();
  StructuralIngest(id);
  stats.new_terms = graph_.num_terms() - terms_before;
  stats.new_pairs = pairs_.size() - pairs_before;
  ++records_ingested_;
  if (metrics != nullptr) metrics->AddCounter("ingest/records");

  GTER_RETURN_IF_ERROR(ConvergeAndRefresh(ctx));
  stats.sweeps = last_converge_sweeps_;
  stats.used_full_resweep = last_used_full_;
  stats.cluster = cluster_of_[id];
  stats.cluster_size = cluster_members_[stats.cluster].size();
  return stats;
}

Status ResolverState::Converge(const ExecContext& ctx) {
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  if (!has_pending_dirty()) return Status::OK();
  return ConvergeAndRefresh(ctx);
}

}  // namespace gter
