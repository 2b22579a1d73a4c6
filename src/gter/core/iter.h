#ifndef GTER_CORE_ITER_H_
#define GTER_CORE_ITER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gter/common/exec_context.h"
#include "gter/graph/bipartite_graph.h"

namespace gter {

/// Per-sweep term-weight normalization of Algorithm 1, line 7.
enum class IterNormalization {
  /// The paper's default x ← 1/(1 + 1/x) = x/(1+x), mapping into (0, 1).
  kLogistic,
  /// L2 normalization Σ x² = 1 (mentioned as an alternative in §V-C).
  kL2,
};

/// Options for the ITER algorithm (Algorithm 1).
struct IterOptions {
  /// Stop when Σ_t |Δx_t| falls below this.
  double tolerance = 1e-7;
  size_t max_iterations = 100;
  IterNormalization normalization = IterNormalization::kLogistic;
  /// Seed for the random initialization of x_t in (0, 1).
  uint64_t seed = 42;
  /// Record Σ|Δx| per sweep (the Figure 5 trace).
  bool track_convergence = false;
  /// Minimum terms/pairs per parallel chunk.
  size_t grain = 256;
};

/// Output of one ITER run.
struct IterResult {
  /// Learned term weight x_t (discrimination power), indexed by TermId.
  std::vector<double> term_weights;
  /// Learned pair similarity s(r_i, r_j), indexed by PairId.
  std::vector<double> pair_scores;
  size_t iterations = 0;
  bool converged = false;
  /// Σ_t |Δx_t| after each sweep, when track_convergence is set.
  std::vector<double> update_trace;
};

/// Runs ITER over the bipartite graph. `edge_probability[p]` is the
/// matching probability p(r_i, r_j) used as the pair→term edge weight of
/// Eq. 6 — pass a vector of 1.0 for the first fusion round (§V-C), or the
/// CliqueRank output in later rounds.
///
/// Execution (worker pool, metrics/trace sinks, cancellation) comes from
/// `ctx`. The propagation sweeps are parallelized over `ctx.pool`; each
/// term/pair accumulates over its own adjacency left to right, so results
/// are bit-identical for any thread count and any `ctx.simd_level()`.
/// Cancellation is polled at entry and once per sweep; a tripped token
/// yields `Cancelled`/`DeadlineExceeded` instead of a result.
Result<IterResult> RunIter(const BipartiteGraph& graph,
                           const std::vector<double>& edge_probability,
                           const IterOptions& options = {},
                           const ExecContext& ctx = DefaultExecContext());

/// Options for the dirty-region ITER mode (DESIGN.md §4g). The frontier,
/// stall and parking tolerances are fixed constants in iter.cc; only the
/// subsystem-solve trigger and the chunk grain are settable.
struct IterDirtyOptions {
  /// Hub-coupled subsystem solve trigger. An ingest that touches a hub (a
  /// term on thousands of pairs — street suffixes, shared venue words)
  /// perturbs a small strongly-coupled set that the worklist contracts only
  /// ~half a decade per sweep, re-gathering the hubs' full adjacencies each
  /// time. When the frontier still holds a term of degree ≥
  /// `subsystem_hub_degree` after `subsystem_min_sweeps` sweeps and the
  /// sweep's largest move is under `subsystem_delta` (the slow tail — real
  /// signal, converging slowly), the run solves the frontier's one-hop term
  /// closure as a reduced serial system (bit-identical at any thread count)
  /// and re-verifies the result with an exact sweep.
  double subsystem_delta = 1e-7;
  size_t subsystem_min_sweeps = 6;
  size_t subsystem_hub_degree = 1024;
  /// Minimum elements per parallel chunk.
  size_t grain = 256;
};

/// Output of one dirty-region run.
struct IterDirtyResult {
  size_t sweeps = 0;
  bool converged = false;
  /// The run degraded to full sweeps (frontier-size escape hatch or stall
  /// escalation).
  bool used_full_resweep = false;
  /// The stall detector fired: the worklist was cycling on numerical dust
  /// and the run finished in full synchronous mode.
  bool stall_escalated = false;
  /// Hub-coupled subsystem solves performed (see
  /// IterDirtyOptions::subsystem_delta).
  size_t subsystem_solves = 0;
  /// Pairs whose score was refreshed, ascending.
  std::vector<PairId> touched_pairs;
};

/// Re-converges ITER over `graph` starting from the invalidated frontier
/// `dirty_terms`, updating `term_weights` / `pair_scores` in place and
/// touching only the region reachable from the frontier. Each sweep:
/// refresh s of pairs adjacent to the frontier, recompute x of terms
/// adjacent to those pairs (full gathers — never deltas, so no error
/// accumulates), and the next frontier is the terms that moved more than
/// a fixed per-term tolerance (1e-13, with a rounding-noise guard for hub
/// terms). On exit every touched pair's score is refreshed against the
/// final weights, so s ≡ Σ_{t∈p} x_t holds exactly.
///
/// The fixed point is the prob ≡ 1 ITER map (the §V-C first-round
/// semantics, logistic normalization) — a concave monotone map with one
/// positive attractor, so a drained worklist lands on the same weights as a
/// batch run over the final graph regardless of ingest order, provided
/// every term with pairs starts positive. x = 0 is a fixed point too: a
/// term at exactly 0 whose pairs' other terms are all at 0 stays there, so
/// callers must restart such terms from a positive weight. Each term
/// update solves its own one-dimensional fixed point exactly (splitting
/// out the term's self-contribution to its scores), which removes the
/// harmonic tail of the plain sweep for weakly supported terms without
/// changing the fixed-point equations. Passing a
/// frontier of *all* terms with weights initialized to any positive
/// constant therefore IS the batch build (the escape hatch fires
/// immediately). Gathers are phase-separated over sorted worklists and
/// chunked at a fixed width, so results are bit-identical at any thread
/// count. Cancellation is polled at entry and once per sweep; a tripped
/// token yields the error status with the vectors mid-converge but
/// structurally valid — re-run with a full frontier to recover.
Result<IterDirtyResult> RunIterDirty(
    const BipartiteGraph& graph, const std::vector<TermId>& dirty_terms,
    const IterDirtyOptions& options, std::vector<double>* term_weights,
    std::vector<double>* pair_scores,
    const ExecContext& ctx = DefaultExecContext());

}  // namespace gter

#endif  // GTER_CORE_ITER_H_
