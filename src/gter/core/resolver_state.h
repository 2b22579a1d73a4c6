#ifndef GTER_CORE_RESOLVER_STATE_H_
#define GTER_CORE_RESOLVER_STATE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/core/iter.h"
#include "gter/er/dataset.h"
#include "gter/er/pair_space.h"
#include "gter/graph/bipartite_graph.h"

namespace gter {

/// Options for the incremental resolver state (DESIGN.md §4g).
struct ResolverStateOptions {
  /// Match threshold on the reciprocal-best pair probability.
  double eta = 0.98;
  /// Eq. 6 denominator mode of the underlying graph.
  PtMode pt_mode = PtMode::kPaper;
  /// Dirty-region re-ITER knobs (subsystem-solve trigger, chunk grain).
  IterDirtyOptions iter;
};

/// Per-ingest outcome, the add_record response payload.
struct IngestStats {
  RecordId record = kInvalidRecordId;
  /// Resolved cluster label of the new record (dense, stable by smallest
  /// member) and its size after the ingest.
  uint32_t cluster = 0;
  size_t cluster_size = 1;
  /// Vocabulary terms first seen in this record.
  size_t new_terms = 0;
  /// Candidate pairs the record added (records sharing ≥ 1 term,
  /// cross-source for two-source datasets).
  size_t new_pairs = 0;
  /// Dirty-region sweeps the converge took.
  size_t sweeps = 0;
  /// The full-resweep escape hatch fired during the converge.
  bool used_full_resweep = false;
};

/// Mutable, versioned resolver over a growing dataset — the incremental
/// engine the batch FusionPipeline stages were refactored into (DESIGN.md
/// §4g). Owns updatable views of every pipeline intermediate:
///
///  - the shared-term inverted index (posting upsert per ingest),
///  - the PairSpace and the term ↔ pair BipartiteGraph (append +
///    N_t/P_t maintenance),
///  - the ITER term weights / pair scores (dirty-region re-converge via
///    RunIterDirty),
///  - the reciprocal-best pair probabilities, match decisions and
///    connected-component clusters (targeted post-pass).
///
/// Ingesting one record costs O(its neighborhood): discover sharers
/// through the inverted index, append the new pairs, mark the record's
/// terms dirty (their N_t — and in kPaper mode P_t — changed), re-converge
/// from that frontier and refresh only the decisions the touched scores
/// can reach. `BuildBatch` is the same code path with every term dirty, so
/// a batch build and any ingest order converge to the same fixed point —
/// the property the incremental-vs-batch differential suite pins at 1e-10.
/// Every term starts from one positive constant, and an ingest restarts
/// from it any of the record's terms that sits at exactly 0 (the other
/// fixed point of the map) but now has pairs, as a batch build would.
///
/// Probability model: ITER's pair score is unnormalized (it grows with the
/// shared-term count), so the match rule scales each score by the best
/// score either endpoint participates in: p(a,b) = s(a,b) / max(M_a, M_b).
/// A pair matches iff p ≥ eta — both records agree the other is (nearly)
/// their best candidate. This is the round-1 fusion semantics (prob ≡ 1
/// inside ITER), kept exactly refreshable per ingest.
///
/// Cancellation: every entry point polls before mutating anything, then
/// per sweep. A cancelled converge leaves the structures valid but the
/// weights mid-flight; the state remembers and the next Converge() (or
/// ingest) recovers by escalating to a full-frontier re-ITER — the same
/// escape hatch the dirty-fraction threshold uses.
///
/// Not internally synchronized: the owner serializes writes (the serving
/// layer ingests under its exclusive lock and reads under shared locks).
class ResolverState {
 public:
  /// Wraps `dataset` (not owned; must outlive the state). Records already
  /// in the dataset are NOT resolved until BuildBatch/IngestExisting runs.
  explicit ResolverState(Dataset* dataset, ResolverStateOptions options = {});

  /// Resolves the first min(limit_records, dataset size) records in one
  /// converge: structural ingest per record, then a single all-dirty
  /// re-ITER (the escape hatch fires immediately → full sweeps) and one
  /// decision pass. Pass a smaller `limit_records` to leave a tail of
  /// already-loaded records for IngestExisting — the replay harness.
  Status BuildBatch(const ExecContext& ctx = DefaultExecContext(),
                    size_t limit_records = std::numeric_limits<size_t>::max());

  /// Tokenizes and appends a record to the dataset, then resolves it
  /// incrementally. The serving-path entry point.
  Result<IngestStats> Ingest(uint32_t source, std::string raw_text,
                             const ExecContext& ctx = DefaultExecContext());

  /// Resolves the next already-loaded dataset record past the state's
  /// horizon (records are ingested strictly in id order).
  Result<IngestStats> IngestExisting(
      const ExecContext& ctx = DefaultExecContext());

  /// Drains any pending dirty region (a no-op when converged). After a
  /// cancelled BuildBatch/Ingest this is the resume point.
  Status Converge(const ExecContext& ctx = DefaultExecContext());

  const Dataset& dataset() const { return *dataset_; }
  const ResolverStateOptions& options() const { return options_; }
  /// Records resolved so far (≤ dataset().size()).
  size_t num_records() const { return ingested_records_; }
  const PairSpace& pairs() const { return pairs_; }
  const BipartiteGraph& graph() const { return graph_; }

  /// ITER term weights, indexed by TermId (vocabulary-sized).
  const std::vector<double>& term_weights() const { return x_; }
  /// ITER pair scores, indexed by PairId.
  const std::vector<double>& pair_scores() const { return s_; }
  /// Reciprocal-best match probabilities, indexed by PairId.
  const std::vector<double>& pair_probability() const { return probability_; }
  const std::vector<bool>& matches() const { return matches_; }
  size_t matched_count() const { return matched_count_; }
  /// Dense cluster labels (stable by smallest member), one per resolved
  /// record, and the member lists per label.
  const std::vector<uint32_t>& cluster_of() const { return cluster_of_; }
  size_t num_clusters() const { return cluster_members_.size(); }
  const std::vector<std::vector<RecordId>>& cluster_members() const {
    return cluster_members_;
  }
  /// Shared-term inverted index over resolved records (vocabulary-sized;
  /// postings ascend because ingest order is id order).
  const std::vector<std::vector<RecordId>>& inverted_index() const {
    return inverted_;
  }

  /// Monotonic state version: bumps on every structural mutation and every
  /// completed converge.
  uint64_t version() const { return version_; }
  /// True when a cancelled/partial converge left dirty terms pending.
  bool has_pending_dirty() const {
    return pending_full_ || !pending_dirty_.empty();
  }

  // Ingest health counters (surfaced by the stats endpoint).
  uint64_t records_ingested() const { return records_ingested_; }
  uint64_t dirty_reiter_runs() const { return dirty_reiter_runs_; }
  uint64_t full_resweeps() const { return full_resweeps_; }
  uint64_t stall_escalations() const { return stall_escalations_; }
  uint64_t subsystem_solves() const { return subsystem_solves_; }
  size_t last_converge_sweeps() const { return last_converge_sweeps_; }

 private:
  /// Appends record `r`'s structures: posting upsert, neighbor discovery,
  /// pair append, N_t bump, dirty marking. O(neighborhood); no convergence.
  void StructuralIngest(RecordId r);
  /// Re-ITER from the pending frontier, then refresh decisions reachable
  /// from the touched scores.
  Status ConvergeAndRefresh(const ExecContext& ctx);
  void RefreshDecisions(const std::vector<PairId>& touched_pairs);
  void RebuildClusters();
  double PairProbabilityOf(PairId p) const;
  /// Grows every vocabulary-indexed structure to the current vocab size.
  void GrowToVocabulary();

  Dataset* dataset_;
  ResolverStateOptions options_;
  BipartiteGraph graph_;
  PairSpace pairs_;
  std::vector<std::vector<RecordId>> inverted_;
  std::vector<std::vector<PairId>> pairs_of_record_;
  std::vector<double> x_;
  std::vector<double> s_;
  /// best_[r] = max s over r's pairs (0 when r has none) — the reciprocal-
  /// best denominator.
  std::vector<double> best_;
  std::vector<double> probability_;
  std::vector<bool> matches_;
  size_t matched_count_ = 0;
  std::vector<uint32_t> cluster_of_;
  std::vector<std::vector<RecordId>> cluster_members_;

  size_t ingested_records_ = 0;
  std::vector<TermId> pending_dirty_;
  bool pending_full_ = false;
  uint64_t version_ = 0;

  uint64_t records_ingested_ = 0;
  uint64_t dirty_reiter_runs_ = 0;
  uint64_t full_resweeps_ = 0;
  uint64_t stall_escalations_ = 0;
  uint64_t subsystem_solves_ = 0;
  size_t last_converge_sweeps_ = 0;
  bool last_used_full_ = false;
};

}  // namespace gter

#endif  // GTER_CORE_RESOLVER_STATE_H_
