#include "gter/core/iter.h"

#include <algorithm>
#include <cmath>

#include "gter/common/logging.h"
#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"

namespace gter {
namespace {

// Chunk width for the parallel reductions (convergence delta, L2 norm).
// Chunk boundaries are a function of this constant alone — never of the
// thread count — and partials are combined serially in chunk order, so the
// reduced value is bit-identical whether the pool has 0 or 64 workers.
constexpr size_t kReduceChunk = 4096;

/// Σ_i f(x[i]) over [0, n) via fixed-width chunks; `f` must be pure.
template <typename PerElement>
double ChunkedSum(ThreadPool* pool, size_t n, PerElement f) {
  const size_t num_chunks = (n + kReduceChunk - 1) / kReduceChunk;
  if (num_chunks <= 1) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) acc += f(i);
    return acc;
  }
  std::vector<double> partial(num_chunks, 0.0);
  ParallelFor(pool, 0, num_chunks, /*grain=*/1, [&](size_t lo, size_t hi) {
    for (size_t chunk = lo; chunk < hi; ++chunk) {
      const size_t begin = chunk * kReduceChunk;
      const size_t end = std::min(begin + kReduceChunk, n);
      double acc = 0.0;
      for (size_t i = begin; i < end; ++i) acc += f(i);
      partial[chunk] = acc;
    }
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

/// Σ_i values[idx[i]], accumulated strictly left to right. ITER's one
/// summation order: every sweep, thread count and SIMD level adds the same
/// terms in the same order, so results are bitwise reproducible.
double IndexedSum(const double* values, const uint32_t* idx, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += values[idx[i]];
  return acc;
}

/// Σ_i weights[idx[i]] · values[idx[i]], left to right.
double IndexedWeightedSum(const double* weights, const double* values,
                          const uint32_t* idx, size_t n) {
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) acc += weights[idx[i]] * values[idx[i]];
  return acc;
}

void Normalize(std::vector<double>* x, IterNormalization kind,
               ThreadPool* pool, size_t grain) {
  if (kind == IterNormalization::kLogistic) {
    // x/(1+x) is the division-safe form of the paper's 1/(1 + 1/x).
    // Elementwise, so the parallel version is trivially bit-identical.
    ParallelFor(pool, 0, x->size(), grain, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        (*x)[i] = (*x)[i] / (1.0 + (*x)[i]);
      }
    });
    return;
  }
  const double* v = x->data();
  double norm_sq =
      ChunkedSum(pool, x->size(), [v](size_t i) { return v[i] * v[i]; });
  if (norm_sq <= 0.0) return;
  const double inv = 1.0 / std::sqrt(norm_sq);
  ParallelFor(pool, 0, x->size(), grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) (*x)[i] *= inv;
  });
}

/// s_p ← Σ_{t∈p} x_t (Algorithm 1, lines 3–4) for the `n` pairs
/// pair_at(0), …, pair_at(n − 1): full gathers in adjacency order, so no
/// delta error ever accumulates and the batch and dirty runs sum alike.
/// Writes are disjoint per pair, so the parallel chunks are independent
/// and bit-identical to the serial loop.
template <typename PairAt>
void RefreshPairScores(const BipartiteGraph& graph,
                       const std::vector<double>& x, size_t n, PairAt pair_at,
                       ThreadPool* pool, size_t grain,
                       std::vector<double>* s) {
  double* out = s->data();
  ParallelFor(pool, 0, n, grain, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const PairId p = pair_at(i);
      auto terms = graph.TermsOfPair(p);
      out[p] = IndexedSum(x.data(), terms.data(), terms.size());
    }
  });
}

/// The identity id list 0, 1, …: every pair or every term. A lambda, not a
/// function, so each loop instantiates on its type and inlines the call.
constexpr auto kAllIds = [](size_t i) { return static_cast<uint32_t>(i); };

}  // namespace

Result<IterResult> RunIter(const BipartiteGraph& graph,
                           const std::vector<double>& edge_probability,
                           const IterOptions& options,
                           const ExecContext& ctx) {
  GTER_CHECK(edge_probability.size() == graph.num_pairs());
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());
  const size_t num_terms = graph.num_terms();
  const size_t num_pairs = graph.num_pairs();

  MetricsRegistry* metrics = ctx.metrics_or_ambient();
  TraceRecorder* recorder = ctx.trace_or_ambient();
  ScopedTimer total_timer(metrics, recorder, "iter/total");
  if (metrics != nullptr) metrics->AddCounter("iter/runs");

  IterResult result;
  result.term_weights.resize(num_terms);
  result.pair_scores.assign(num_pairs, 0.0);

  // Line 1: random initialization of x_t in (0, 1).
  Rng rng(options.seed);
  for (double& x : result.term_weights) x = rng.OpenUniformDouble();

  std::vector<double>& x = result.term_weights;
  std::vector<double>& s = result.pair_scores;
  std::vector<double> x_prev(num_terms);
  // P_t is fixed for the run; the graph derives it on demand, which costs
  // the hot term loop more than one lookup.
  std::vector<double> pt(num_terms);
  for (TermId t = 0; t < num_terms; ++t) pt[t] = graph.Pt(t);

  // Both sweeps are gather-style — every output element reads only from the
  // previous phase's vector and accumulates its own adjacency in storage
  // order — so the parallel chunks are independent and bit-identical to the
  // serial sweep.
  ThreadPool* pool = ctx.pool;
  const size_t grain = options.grain;
  for (size_t iteration = 0; iteration < options.max_iterations; ++iteration) {
    // One cancellation poll per sweep: the natural Algorithm 1 boundary —
    // frequent enough for prompt unwinding, far off the inner hot loops.
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    ScopedTimer sweep_timer(metrics, recorder, "iter/sweep",
                            TraceArg{"sweep", static_cast<double>(iteration)});

    // Lines 3–4: s(r_i, r_j) ← Σ_{t shared} x_t.
    RefreshPairScores(graph, x, num_pairs, kAllIds, pool, grain, &s);

    x_prev = x;

    // Lines 5–6: x_t ← Σ_p p(r_i, r_j)·s(p) / P_t.
    ParallelFor(pool, 0, num_terms, grain, [&](size_t lo, size_t hi) {
      for (TermId t = lo; t < hi; ++t) {
        auto adjacent = graph.PairsOfTerm(t);
        if (adjacent.empty()) {
          x[t] = 0.0;
          continue;
        }
        x[t] = IndexedWeightedSum(edge_probability.data(), s.data(),
                                  adjacent.data(), adjacent.size()) /
               pt[t];
      }
    });

    // Line 7: normalization keeps the additive rule bounded.
    Normalize(&x, options.normalization, pool, grain);

    const double* xp = x.data();
    const double* xq = x_prev.data();
    const double change = ChunkedSum(pool, num_terms, [xp, xq](size_t i) {
      return std::fabs(xp[i] - xq[i]);
    });
    if (options.track_convergence) result.update_trace.push_back(change);
    if (metrics != nullptr) {
      metrics->AddCounter("iter/sweeps");
      metrics->Observe("iter/convergence_delta", change);
    }
    result.iterations = iteration + 1;
    if (change < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  if (metrics != nullptr && result.converged) {
    metrics->AddCounter("iter/converged");
  }

  // Final pair scores from the converged weights.
  RefreshPairScores(graph, x, num_pairs, kAllIds, pool, grain, &s);
  return result;
}

namespace {

// Dirty-region re-ITER tolerances (DESIGN.md §4g).

// A term re-enters the frontier while its sweep-over-sweep change exceeds
// this. Far tighter than IterOptions::tolerance (a global L1 sum): the
// frontier rule is per-term, and the incremental-vs-batch differential
// contract (≤ 1e-10 drift after many ingests) needs each converge to park
// every weight within a hair of the fixed point.
constexpr double kFrontierTolerance = 1e-13;

// Noise-floor guard for the frontier rule. A term's update gathers
// Σ_{p∋t} s_p before splitting out the self-contribution, so its result
// carries rounding noise proportional to that gathered magnitude — for a
// hub term with 10k adjacent pairs the noise floor sits around 1e-12,
// *above* the absolute tolerance, and demanding sub-rounding stability
// would keep such terms jittering in the frontier forever (a worklist that
// never drains). A term therefore re-enters the frontier only when its
// change exceeds max(kFrontierTolerance, kNoiseFloor · ε · Σ s_p). The
// extra slack is the update's own conditioning limit, far inside the 1e-10
// differential contract.
constexpr double kNoiseFloor = 256.0;

// Stall detector. The worklist's partial refreshes act as time delays
// between coupled terms, and delayed relaxation can sustain rotation modes
// of near-unit gain: rounding jitter from hub terms circulates through
// mid-degree neighbors as a ~1e-11 limit cycle that keeps a small frontier
// alive to the sweep cap; per-term thresholds cannot park it, since each
// term's move is driven by its neighbors' noise, not its own. The
// signature is a sweep whose largest |Δx| sits below kStallDelta
// (numerical dust — far under any real signal, far over the stationary
// state's exact zeros) while the frontier persists and the move fails to
// shrink by kStallContraction against the previous sweep. After
// kStallSweeps such sweeps without a non-dust sweep between them the run
// escalates (sticky) to full synchronous sweeps, which have no delays, no
// such modes, and reach a bitwise-stationary fixed point. A genuinely
// converging run either crosses the dust band in a sweep or two or keeps
// contracting through it — a small coupled cluster of streamed terms can
// take ten sweeps at a ratio near 0.3 — and never trips this.
constexpr double kStallDelta = 1e-9;
constexpr size_t kStallSweeps = 3;
constexpr double kStallContraction = 0.5;

// Parking rule for post-solve verification sweeps. The reduced subsystem
// solve is bitwise stationary in *its own* summation order; the exact
// gather sums the same mass in a different order, so verification still
// sees hubs move by their rounding floor (~ε · Σ s_p ≈ 1e-11 at 10k pairs)
// — dust that sits right at the frontier rule's noise guard and can
// ping-pong closure subsets indefinitely. After at least one solve, a
// verification sweep whose largest move is below this parks the run: the
// distance to the exact fixed point is conditioning-limited rounding, well
// inside the 1e-10 differential contract.
constexpr double kSubsystemParkDelta = 1e-10;
// Largest one-hop closure the subsystem solve freezes (beyond it the solve
// is abandoned and the stall path backstops), and the most solves one run
// performs.
constexpr size_t kSubsystemMaxTerms = 1024;
constexpr size_t kSubsystemMaxRounds = 3;

// Parking rule for the post-stall full mode. The full map contracts
// geometrically toward bitwise stationarity, but grinding out the last
// decades of dust costs a dozen extra sweeps for nothing: once a full
// sweep's largest move falls below this, the run parks and reports
// converged — the remaining distance to the fixed point is this times a
// contraction-ratio factor, far inside the 1e-10 differential contract.
// Applies only after a stall escalation; escape-hatch full runs (every
// batch build) still run to exact stationarity.
constexpr double kStallParkDelta = 1e-12;

// Hard sweep cap; the worklist normally drains long before this.
constexpr size_t kMaxDirtySweeps = 1000;

// Escape hatch: when the frontier covers more than this fraction of all
// terms, the run degrades to full sweeps (same arithmetic, no worklist
// bookkeeping) — at that size the global sweep is cheaper than tracking.
// Once tripped it stays full for the rest of the run.
constexpr double kFullResweepThreshold = 0.25;

// The exact local solve of the prob ≡ 1 Eq. 6 update for one term. The
// plain sweep x ← h((Σ_{p∋t} s_p)/P_t) feeds x_t back into itself through
// every adjacent score (s_p contains x_t), and that self-coupling makes
// weakly supported terms decay HARMONICALLY (x_{n+1} = x_n/(1+x_n) ⇒
// x_n ≈ 1/n) — a per-term 1e-13 frontier would never drain. Splitting
// Σ s_p = deg·x_t + c (c = the other terms' mass) and solving the term's
// own fixed point deg·x² + (P_t + c − deg)·x − c = 0 exactly removes the
// slow mode: an unsupported term (c = 0) parks at its limit in ONE update,
// and the remaining cross-term coupling contracts geometrically. The root
// is the same x the plain sweep converges to, so the global fixed point —
// the thing the incremental-vs-batch differential pins — is unchanged;
// only the approach is accelerated (nonlinear Jacobi with exact
// one-dimensional solves). `deg` must be positive.
inline double LocalFixedPoint(double deg, double pt, double c) {
  const double b = pt + c - deg;
  if (c <= 0.0) return b < 0.0 ? -b / deg : 0.0;
  // Cancellation-free form of (−b + √(b² + 4·deg·c)) / (2·deg).
  return 2.0 * c / (b + std::sqrt(b * b + 4.0 * deg * c));
}

// Worklist scratch for RunIterDirty: a mark byte per element plus the
// sorted id list the parallel passes iterate. Collect() appends unseen ids;
// the caller sorts once per sweep, so every pass sees a deterministic
// order regardless of insertion pattern.
struct MarkedList {
  std::vector<uint8_t> mark;
  std::vector<uint32_t> ids;

  explicit MarkedList(size_t n) : mark(n, 0) {}
  void Collect(uint32_t id) {
    if (mark[id]) return;
    mark[id] = 1;
    ids.push_back(id);
  }
  void Clear() {
    for (uint32_t id : ids) mark[id] = 0;
    ids.clear();
  }
};

}  // namespace

Result<IterDirtyResult> RunIterDirty(const BipartiteGraph& graph,
                                     const std::vector<TermId>& dirty_terms,
                                     const IterDirtyOptions& options,
                                     std::vector<double>* term_weights,
                                     std::vector<double>* pair_scores,
                                     const ExecContext& ctx) {
  const size_t num_terms = graph.num_terms();
  const size_t num_pairs = graph.num_pairs();
  GTER_CHECK(term_weights->size() == num_terms);
  GTER_CHECK(pair_scores->size() == num_pairs);
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());

  MetricsRegistry* metrics = ctx.metrics_or_ambient();
  TraceRecorder* recorder = ctx.trace_or_ambient();
  ScopedTimer total_timer(metrics, recorder, "iter/dirty");
  if (metrics != nullptr) metrics->AddCounter("iter/dirty_runs");

  std::vector<double>& x = *term_weights;
  std::vector<double>& s = *pair_scores;
  ThreadPool* pool = ctx.pool;
  const size_t grain = options.grain;

  // Frontier: sorted unique dirty terms.
  std::vector<TermId> frontier(dirty_terms);
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  GTER_CHECK(frontier.empty() || frontier.back() < num_terms);

  IterDirtyResult result;
  std::vector<uint8_t> term_touched(num_terms, 0);
  std::vector<uint8_t> pair_touched(num_pairs, 0);
  MarkedList dirty_pairs(num_pairs);
  MarkedList affected(num_terms);
  std::vector<TermId> next_frontier;

  const auto refresh_pairs = [&](const std::vector<PairId>& list) {
    RefreshPairScores(
        graph, x, list.size(), [&](size_t i) { return list[i]; }, pool,
        grain, &s);
    for (PairId p : list) pair_touched[p] = 1;
  };
  const auto refresh_all_pairs = [&] {
    RefreshPairScores(graph, x, num_pairs, kAllIds, pool, grain, &s);
    std::fill(pair_touched.begin(), pair_touched.end(), 1);
  };

  // x of one term from the current s via LocalFixedPoint. `scale_out`
  // receives the gathered magnitude Σ_{p∋t} s_p — the conditioning of the
  // update, used by the frontier rule: changes below kNoiseFloor · ε ·
  // scale are this update's own rounding noise, not signal (a hub term
  // gathering 10k scores cannot be stable past ~1e-12, and chasing it
  // below that keeps the worklist alive forever).
  const auto update_term = [&](TermId t, double* scale_out) {
    auto adjacent = graph.PairsOfTerm(t);
    if (adjacent.empty()) {
      *scale_out = 0.0;
      return 0.0;
    }
    const double deg = static_cast<double>(adjacent.size());
    const double total =
        IndexedSum(s.data(), adjacent.data(), adjacent.size());
    *scale_out = total;
    return LocalFixedPoint(deg, graph.Pt(t), total - deg * x[t]);
  };
  constexpr double kEps = 2.220446049250313e-16;  // DBL_EPSILON
  constexpr double kNoise = kNoiseFloor * kEps;

  // Recomputes x over the `n` terms term_at(0), …, term_at(n − 1), given
  // ascending; chunked at the fixed reduction width with per-chunk frontier
  // collection concatenated in chunk order, so the next frontier is sorted
  // and thread-count independent. Returns the largest |Δx| of the sweep
  // (serial chunk-order max), the signal the stall detector watches.
  const auto sweep_terms = [&](size_t n, auto term_at) {
    next_frontier.clear();
    const size_t num_chunks = (n + kReduceChunk - 1) / kReduceChunk;
    std::vector<std::vector<TermId>> moved(num_chunks);
    std::vector<double> chunk_max(num_chunks, 0.0);
    ParallelFor(pool, 0, num_chunks, /*grain=*/1, [&](size_t lo, size_t hi) {
      for (size_t chunk = lo; chunk < hi; ++chunk) {
        const size_t begin = chunk * kReduceChunk;
        const size_t end = std::min(begin + kReduceChunk, n);
        for (size_t i = begin; i < end; ++i) {
          const TermId t = term_at(i);
          const double old = x[t];
          double scale = 0.0;
          const double v = update_term(t, &scale);
          x[t] = v;
          if (v != old) term_touched[t] = 1;
          const double delta = std::fabs(v - old);
          chunk_max[chunk] = std::max(chunk_max[chunk], delta);
          if (delta > std::max(kFrontierTolerance, kNoise * scale)) {
            moved[chunk].push_back(t);
          }
        }
      }
    });
    for (const auto& chunk : moved) {
      next_frontier.insert(next_frontier.end(), chunk.begin(), chunk.end());
    }
    double max_delta = 0.0;
    for (double m : chunk_max) max_delta = std::max(max_delta, m);
    return max_delta;
  };

  // Direct solve of the hub-coupled subsystem (see IterDirtyOptions). The
  // frontier's one-hop term closure T is frozen, the exact pair structure
  // is compressed into co-occurrence counts M[i][j] = |pairs(T_i) ∩
  // pairs(T_j)| (diagonal = degree), and the reduced map
  //   total_i = base_i + Σ_j M[i][j]·x_j,   base_i = Σ s − M·x (frozen mass)
  // is iterated serially to bitwise stationarity with the same exact local
  // solve as update_term — hub↔hub coupling costs one multiply instead of
  // thousands of pair reads per sweep. The caller re-verifies the result
  // with a normal exact sweep over T. Returns false when the closure
  // exceeds kSubsystemMaxTerms (solve abandoned, nothing written).
  const auto solve_subsystem = [&](std::vector<TermId>* movers) {
    // Movers' pairs have not been refreshed since they moved; everything
    // else is current. One refresh makes every score exact.
    // The collected pair lists stay in (deterministic) collection order:
    // the refresh is elementwise and the coefficient accumulation below
    // adds exact integers, so neither depends on traversal order — and a
    // hub closure holds tens of thousands of pairs, making the sort the
    // single most expensive step of the solve.
    dirty_pairs.Clear();
    for (TermId t : *movers) {
      for (PairId p : graph.PairsOfTerm(t)) dirty_pairs.Collect(p);
    }
    refresh_pairs(dirty_pairs.ids);

    // T = movers ∪ terms sharing a pair with a mover.
    affected.Clear();
    for (TermId t : *movers) affected.Collect(t);
    for (PairId p : dirty_pairs.ids) {
      for (TermId u : graph.TermsOfPair(p)) affected.Collect(u);
      if (affected.ids.size() > kSubsystemMaxTerms) return false;
    }
    std::sort(affected.ids.begin(), affected.ids.end());
    const std::vector<TermId>& T = affected.ids;
    const size_t n = T.size();

    std::vector<int32_t> index_of(num_terms, -1);
    for (size_t i = 0; i < n; ++i) index_of[T[i]] = static_cast<int32_t>(i);

    // Coefficient pass over every pair of every T term (each pair once).
    for (TermId t : T) {
      for (PairId p : graph.PairsOfTerm(t)) dirty_pairs.Collect(p);
    }
    std::vector<double> m(n * n, 0.0);
    std::vector<int32_t> inner;
    for (PairId p : dirty_pairs.ids) {
      inner.clear();
      for (TermId u : graph.TermsOfPair(p)) {
        if (index_of[u] >= 0) inner.push_back(index_of[u]);
      }
      for (int32_t a : inner) {
        for (int32_t b : inner) m[a * n + b] += 1.0;
      }
    }

    std::vector<double> deg(n), pt(n), base(n), xs(n);
    for (size_t i = 0; i < n; ++i) {
      const TermId t = T[i];
      deg[i] = static_cast<double>(graph.PairsOfTerm(t).size());
      pt[i] = graph.Pt(t);
      xs[i] = x[t];
    }
    for (size_t i = 0; i < n; ++i) {
      auto adjacent = graph.PairsOfTerm(T[i]);
      const double total =
          IndexedSum(s.data(), adjacent.data(), adjacent.size());
      double coupled = 0.0;
      for (size_t j = 0; j < n; ++j) coupled += m[i * n + j] * xs[j];
      base[i] = total - coupled;
    }

    // Gauss–Seidel, not Jacobi: with thousands of shared pairs between two
    // hubs the synchronous map carries a near-(−1) antisymmetric mode that
    // period-2 cycles at rounding amplitude and never goes bitwise
    // stationary. In-place updates collapse that mode (the pair multiplier
    // becomes the gain product, positive), and the fixed point is the
    // same. The loop is serial over sorted ids either way.
    constexpr size_t kSolveCap = 4096;
    double prev_delta = 0.0;
    size_t used = 0;
    double floor_delta = 0.0;
    for (size_t it = 0; it < kSolveCap; ++it) {
      used = it + 1;
      double delta_max = 0.0;
      for (size_t i = 0; i < n; ++i) {
        double v = 0.0;
        if (deg[i] != 0.0) {
          double total = base[i];
          for (size_t j = 0; j < n; ++j) total += m[i * n + j] * xs[j];
          v = LocalFixedPoint(deg[i], pt[i], total - deg[i] * xs[i]);
        }
        delta_max = std::max(delta_max, std::fabs(v - xs[i]));
        xs[i] = v;
      }
      floor_delta = delta_max;
      if (delta_max == 0.0) break;
      if (it > 0 && delta_max >= prev_delta) break;
      prev_delta = delta_max;
    }

    double wb_max = 0.0;
    for (size_t i = 0; i < n; ++i) {
      wb_max = std::max(wb_max, std::fabs(xs[i] - x[T[i]]));
      if (xs[i] != x[T[i]]) {
        x[T[i]] = xs[i];
        term_touched[T[i]] = 1;
      }
    }
    GTER_LOG(Debug) << "  subsystem solve n=" << n << " pairs "
                    << dirty_pairs.ids.size() << " writeback_max " << wb_max
                    << " iters " << used << " floor " << floor_delta;
    // Hand T back as the next frontier: the following sweep refreshes its
    // pairs and re-tests every T term with exact gathers — the reduced
    // solve is never trusted unverified, and any neighbor it could not see
    // gets recruited there.
    movers->assign(T.begin(), T.end());
    return true;
  };

  bool full = false;
  bool dust_parked = false;
  size_t dust_sweeps = 0;
  double prev_sweep_max = 0.0;
  size_t solve_rounds = 0;
  while (result.sweeps < kMaxDirtySweeps) {
    if (frontier.empty() || dust_parked) break;
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    double sweep_max = 0.0;

    if (!full && static_cast<double>(frontier.size()) >
                     kFullResweepThreshold * static_cast<double>(num_terms)) {
      full = true;
      result.used_full_resweep = true;
      if (metrics != nullptr) metrics->AddCounter("iter/full_resweeps");
    }

    if (full) {
      // Degraded mode: full sweeps, identical arithmetic, no worklists.
      refresh_all_pairs();
      sweep_max = sweep_terms(num_terms, kAllIds);
      // Post-stall parking (kStallParkDelta). Escape-hatch full runs
      // (stall_escalated false) still land bitwise on the fixed point.
      if (result.stall_escalated && sweep_max < kStallParkDelta) {
        dust_parked = true;
      }
    } else {
      // Pairs adjacent to the frontier, then terms adjacent to those pairs
      // (plus the frontier itself — a frontier term with no pairs still
      // needs its weight parked at 0).
      dirty_pairs.Clear();
      affected.Clear();
      for (TermId t : frontier) {
        affected.Collect(t);
        for (PairId p : graph.PairsOfTerm(t)) dirty_pairs.Collect(p);
      }
      std::sort(dirty_pairs.ids.begin(), dirty_pairs.ids.end());
      for (PairId p : dirty_pairs.ids) {
        for (TermId t : graph.TermsOfPair(p)) affected.Collect(t);
      }
      std::sort(affected.ids.begin(), affected.ids.end());
      refresh_pairs(dirty_pairs.ids);
      sweep_max = sweep_terms(affected.ids.size(),
                              [&](size_t i) { return affected.ids[i]; });

      // Post-solve parking (kSubsystemParkDelta), else stall detection
      // (kStallDelta, kStallSweeps, kStallContraction): a frontier that
      // keeps cycling on dust escalates, sticky, to full synchronous
      // sweeps, which reach the batch build's fixed point.
      if (solve_rounds > 0 && sweep_max < kSubsystemParkDelta) {
        dust_parked = true;
      } else if (sweep_max < kStallDelta) {
        if (sweep_max > kStallContraction * prev_sweep_max) ++dust_sweeps;
        if (dust_sweeps >= kStallSweeps && !next_frontier.empty()) {
          full = true;
          result.used_full_resweep = true;
          result.stall_escalated = true;
          if (metrics != nullptr) {
            metrics->AddCounter("iter/stall_escalations");
          }
        }
      } else {
        dust_sweeps = 0;
      }

      // Hub-coupled slow tail → direct subsystem solve. Only when the
      // frontier still carries a hub this deep into the run: a leaf-term
      // ingest drains in two or three sweeps and never gets here.
      if (!full && !dust_parked && !next_frontier.empty() &&
          solve_rounds < kSubsystemMaxRounds &&
          result.sweeps + 1 >= options.subsystem_min_sweeps &&
          sweep_max < options.subsystem_delta) {
        bool has_hub = false;
        for (TermId t : next_frontier) {
          if (graph.PairsOfTerm(t).size() >= options.subsystem_hub_degree) {
            has_hub = true;
            break;
          }
        }
        if (has_hub) {
          if (solve_subsystem(&next_frontier)) {
            ++solve_rounds;
            ++result.subsystem_solves;
            dust_sweeps = 0;
            if (metrics != nullptr) {
              metrics->AddCounter("iter/subsystem_solves");
            }
          } else {
            // Closure too large to freeze — don't rebuild it every sweep.
            solve_rounds = kSubsystemMaxRounds;
          }
        }
      }
    }

    frontier.swap(next_frontier);
    prev_sweep_max = sweep_max;
    ++result.sweeps;
    if (metrics != nullptr) metrics->AddCounter("iter/dirty_sweeps");
    GTER_LOG(Debug) << "iter/dirty sweep " << result.sweeps << ": frontier "
                    << frontier.size() << "/" << num_terms << " max_delta "
                    << sweep_max << (full ? " (full)" : "");
  }
  result.converged = frontier.empty() || dust_parked;

  // Exit invariant: every pair adjacent to a touched term gets its score
  // refreshed against the final weights, so s ≡ Σ_{t∈p} x_t holds exactly
  // (terms that moved sub-tolerance mid-run would otherwise leave a stale
  // residue in their pairs).
  if (full) {
    refresh_all_pairs();
  } else {
    dirty_pairs.Clear();
    for (TermId t = 0; t < num_terms; ++t) {
      if (!term_touched[t]) continue;
      for (PairId p : graph.PairsOfTerm(t)) dirty_pairs.Collect(p);
    }
    std::sort(dirty_pairs.ids.begin(), dirty_pairs.ids.end());
    refresh_pairs(dirty_pairs.ids);
  }

  for (PairId p = 0; p < num_pairs; ++p) {
    if (pair_touched[p]) result.touched_pairs.push_back(p);
  }
  return result;
}

}  // namespace gter
