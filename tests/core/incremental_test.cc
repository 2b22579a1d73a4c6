// The incremental engine contract (DESIGN.md §4g):
//
//  1. Incremental-vs-batch differential: N base records built in one shot
//     plus K records streamed in RANDOM order land on the same resolution
//     as a one-shot batch build over all N+K — identical clusterings and
//     match sets, term weights within 1e-10 — because both arms drain the
//     same prob ≡ 1 logistic ITER map to its unique positive fixed point.
//     Pinned serial and with an 8-thread pool (and the pooled run is
//     bitwise identical to the serial one).
//  2. Cancellation: every new entry point (BuildBatch, Ingest,
//     IngestExisting, Converge, RunIterDirty, RunProgressive) polls at
//     entry — k = 0 always cancels — and a cancelled converge is resumable:
//     Converge() recovers and the final weights match the uncancelled run.
//  3. The progressive scheduler with an unlimited budget emits exactly the
//     batch match set and clustering; a tripped budget yields a valid
//     partial snapshot, never an error.
//  4. Ingests over a RemoveFrequentTerms corpus stay on the worklist: the
//     stall detector does not take a slowly contracting cluster for a
//     limit cycle and escalate it to full sweeps.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/exec_context.h"
#include "gter/common/metrics.h"
#include "gter/common/random.h"
#include "gter/common/thread_pool.h"
#include "gter/core/progressive.h"
#include "gter/core/resolver_state.h"
#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "gter/graph/bipartite_graph.h"

namespace gter {
namespace {

// Small unpreprocessed world: streaming re-tokenizes raw text, so both
// arms must see full term sets (RemoveFrequentTerms is a batch-global
// operation; the serving layer applies it before the state is built).
Dataset MakeData() {
  return GenerateBenchmark(BenchmarkKind::kRestaurant, 0.12, 11).dataset;
}

// Rebuilds `src` with records re-added (re-tokenized) in `order`.
Dataset Reorder(const Dataset& src, const std::vector<RecordId>& order) {
  Dataset out(src.name(), src.num_sources());
  for (RecordId r : order) {
    const Record& rec = src.record(r);
    out.AddRecord(rec.source, rec.raw_text, rec.fields);
  }
  return out;
}

// Stream order: first `base` records in id order, the tail shuffled.
std::vector<RecordId> StreamOrder(size_t n, size_t base, uint64_t seed) {
  std::vector<RecordId> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<RecordId>(i);
  std::vector<RecordId> tail(order.begin() + base, order.end());
  Rng rng(seed);
  rng.Shuffle(&tail);
  std::copy(tail.begin(), tail.end(), order.begin() + base);
  return order;
}

// Streamed arm: batch-build the first `base` stream positions, ingest the
// rest one by one through the replay path.
void RunStream(ResolverState* state, size_t base, const ExecContext& ctx) {
  ASSERT_TRUE(state->BuildBatch(ctx, base).ok());
  while (state->num_records() < state->dataset().size()) {
    auto ingest = state->IngestExisting(ctx);
    ASSERT_TRUE(ingest.ok()) << ingest.status();
  }
}

// Match set as canonical (a, b) pairs in ORIGINAL record ids; `to_orig`
// maps the state's record ids back (identity for the batch arm).
std::vector<std::pair<RecordId, RecordId>> MatchSet(
    const ResolverState& state, const std::vector<RecordId>& to_orig) {
  std::vector<std::pair<RecordId, RecordId>> out;
  for (PairId p = 0; p < state.pairs().size(); ++p) {
    if (!state.matches()[p]) continue;
    RecordId a = to_orig[state.pairs().pair(p).a];
    RecordId b = to_orig[state.pairs().pair(p).b];
    if (a > b) std::swap(a, b);
    out.emplace_back(a, b);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Asserts the two arms resolved identically: same vocabulary (as a set),
// per-term weights within `tol` (matched by term STRING — the arms intern
// in different orders), identical match sets and identical partitions in
// original record ids.
void ExpectArmsAgree(const ResolverState& batch, const ResolverState& stream,
                     const std::vector<RecordId>& order, double tol) {
  const Dataset& a = batch.dataset();
  const Dataset& b = stream.dataset();
  ASSERT_EQ(a.vocabulary().size(), b.vocabulary().size());
  ASSERT_EQ(batch.pairs().size(), stream.pairs().size());

  double max_drift = 0.0;
  for (TermId ta = 0; ta < a.vocabulary().size(); ++ta) {
    const TermId tb = b.vocabulary().Lookup(a.vocabulary().TermOf(ta));
    ASSERT_NE(tb, kInvalidTermId);
    max_drift = std::max(
        max_drift,
        std::fabs(batch.term_weights()[ta] - stream.term_weights()[tb]));
  }
  EXPECT_LE(max_drift, tol);

  std::vector<RecordId> identity(a.size());
  for (size_t i = 0; i < identity.size(); ++i) {
    identity[i] = static_cast<RecordId>(i);
  }
  EXPECT_EQ(MatchSet(batch, identity), MatchSet(stream, order));

  // Partition equivalence over every record pair, through the stream
  // permutation: pos[orig] = stream id.
  std::vector<RecordId> pos(order.size());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  ASSERT_EQ(batch.num_records(), stream.num_records());
  EXPECT_EQ(batch.num_clusters(), stream.num_clusters());
  const auto& ca = batch.cluster_of();
  const auto& cb = stream.cluster_of();
  for (RecordId r = 0; r < a.size(); ++r) {
    for (RecordId q = r + 1; q < a.size(); ++q) {
      EXPECT_EQ(ca[r] == ca[q], cb[pos[r]] == cb[pos[q]])
          << "records " << r << " vs " << q;
    }
  }
}

TEST(IncrementalDifferentialTest, StreamedRandomOrderMatchesBatchSerial) {
  Dataset data = MakeData();
  const size_t n = data.size();
  const size_t base = (n * 2) / 3;
  const std::vector<RecordId> order = StreamOrder(n, base, 99);

  ResolverState batch(&data);
  ASSERT_TRUE(batch.BuildBatch().ok());

  Dataset streamed_data = Reorder(data, order);
  ResolverState stream(&streamed_data);
  RunStream(&stream, base, DefaultExecContext());

  ExpectArmsAgree(batch, stream, order, 1e-10);
}

TEST(IncrementalDifferentialTest, StreamedMatchesBatchEightThreads) {
  Dataset data = MakeData();
  const size_t n = data.size();
  const size_t base = (n * 2) / 3;
  const std::vector<RecordId> order = StreamOrder(n, base, 1234);

  ThreadPool pool(8);
  const ExecContext ctx = ExecContext::WithPool(&pool);

  ResolverState batch(&data);
  ASSERT_TRUE(batch.BuildBatch(ctx).ok());

  Dataset streamed_data = Reorder(data, order);
  ResolverState stream(&streamed_data);
  RunStream(&stream, base, ctx);

  ExpectArmsAgree(batch, stream, order, 1e-10);

  // Thread-count determinism: the pooled streamed arm is bitwise the
  // serial streamed arm.
  Dataset serial_data = Reorder(data, order);
  ResolverState serial(&serial_data);
  RunStream(&serial, base, DefaultExecContext());
  ASSERT_EQ(serial.term_weights().size(), stream.term_weights().size());
  for (size_t t = 0; t < serial.term_weights().size(); ++t) {
    ASSERT_EQ(serial.term_weights()[t], stream.term_weights()[t]) << t;
  }
  EXPECT_EQ(serial.pair_scores(), stream.pair_scores());
  EXPECT_EQ(serial.cluster_of(), stream.cluster_of());
}

TEST(IncrementalDifferentialTest, SubsystemSolvePathMatchesBatch) {
  // Force the hub-coupled subsystem solve (and its post-solve parking) on
  // the small corpus by dropping the hub-degree bar and the trigger depth:
  // street-suffix terms here sit on dozens of pairs, so nearly every
  // ingest now routes through freeze → reduced solve → verify → park.
  // The differential contract must survive the solve's different
  // summation order, and the solve must stay bitwise thread-independent.
  ResolverStateOptions opts;
  opts.iter.subsystem_hub_degree = 8;
  opts.iter.subsystem_min_sweeps = 2;
  opts.iter.subsystem_delta = 1e-2;

  Dataset data = MakeData();
  const size_t n = data.size();
  const size_t base = (n * 2) / 3;
  const std::vector<RecordId> order = StreamOrder(n, base, 4242);

  ResolverState batch(&data);  // default options: plain batch fixed point
  ASSERT_TRUE(batch.BuildBatch().ok());

  MetricsRegistry metrics;
  ExecContext ctx;
  ctx.metrics = &metrics;
  Dataset streamed_data = Reorder(data, order);
  ResolverState stream(&streamed_data, opts);
  RunStream(&stream, base, ctx);
  // The forced thresholds must actually exercise the solve path —
  // otherwise this test silently degrades into StreamedRandomOrder.
  EXPECT_GT(metrics.Counter("iter/subsystem_solves"), 0u);

  ExpectArmsAgree(batch, stream, order, 1e-10);

  // Bitwise thread-independence with solves in play: the solve itself is
  // serial over sorted ids, and its surrounding refresh passes are
  // chunk-deterministic.
  ThreadPool pool(8);
  ExecContext pooled = ExecContext::WithPool(&pool);
  Dataset pooled_data = Reorder(data, order);
  ResolverState pooled_stream(&pooled_data, opts);
  RunStream(&pooled_stream, base, pooled);
  ASSERT_EQ(pooled_stream.term_weights().size(),
            stream.term_weights().size());
  for (size_t t = 0; t < stream.term_weights().size(); ++t) {
    ASSERT_EQ(pooled_stream.term_weights()[t], stream.term_weights()[t])
        << t;
  }
  EXPECT_EQ(pooled_stream.pair_scores(), stream.pair_scores());
  EXPECT_EQ(pooled_stream.cluster_of(), stream.cluster_of());
}

TEST(IncrementalDifferentialTest, ServingIngestPathMatchesBatch) {
  // The Ingest(source, raw_text) serving path: batch over N records vs
  // BuildBatch(N-5) plus five tokenizing ingests.
  Dataset data = MakeData();
  const size_t n = data.size();

  ResolverState batch(&data);
  ASSERT_TRUE(batch.BuildBatch().ok());

  std::vector<RecordId> identity(n);
  for (size_t i = 0; i < n; ++i) identity[i] = static_cast<RecordId>(i);
  Dataset prefix = Reorder(data, identity);
  // Drop the last five records, re-ingest them through the text path.
  Dataset head(data.name(), data.num_sources());
  for (size_t i = 0; i + 5 < n; ++i) {
    head.AddRecord(data.record(i).source, data.record(i).raw_text,
                   data.record(i).fields);
  }
  ResolverState stream(&head);
  ASSERT_TRUE(stream.BuildBatch().ok());
  for (size_t i = n - 5; i < n; ++i) {
    auto ingest =
        stream.Ingest(data.record(i).source, data.record(i).raw_text);
    ASSERT_TRUE(ingest.ok()) << ingest.status();
    EXPECT_EQ(ingest.value().record, static_cast<RecordId>(i));
    EXPECT_LT(ingest.value().cluster, stream.num_clusters());
    EXPECT_GE(ingest.value().cluster_size, 1u);
  }
  ExpectArmsAgree(batch, stream, identity, 1e-10);
}

TEST(IncrementalDifferentialTest, PreprocessedCorpusStreamMatchesBatch) {
  // The serving shape: the corpus went through RemoveFrequentTerms, while
  // ingested records are tokenized in full. Terms the build left without
  // pairs (stripped frequent terms, single-record terms) sit at weight 0
  // — also a fixed point of the map — until ingests give them pairs. The
  // streamed state must still land where a batch build over its final
  // dataset lands, whose terms all start from the positive constant.
  const Dataset data = MakeData();
  const size_t n = data.size();
  const size_t tail = n / 3;
  ThreadPool pool(8);
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const ExecContext ctx = ExecContext::WithPool(threads);
    Dataset corpus(data.name(), data.num_sources());
    for (size_t i = 0; i + tail < n; ++i) {
      corpus.AddRecord(data.record(i).source, data.record(i).raw_text,
                       data.record(i).fields);
    }
    RemoveFrequentTerms(&corpus);
    ResolverState stream(&corpus);
    ASSERT_TRUE(stream.BuildBatch(ctx).ok());
    for (size_t i = n - tail; i < n; ++i) {
      auto ingest =
          stream.Ingest(data.record(i).source, data.record(i).raw_text, ctx);
      ASSERT_TRUE(ingest.ok()) << ingest.status();
    }

    Dataset final_data = stream.dataset();
    ResolverState batch(&final_data);
    ASSERT_TRUE(batch.BuildBatch(ctx).ok());
    std::vector<RecordId> identity(n);
    for (size_t i = 0; i < n; ++i) identity[i] = static_cast<RecordId>(i);
    ExpectArmsAgree(batch, stream, identity, 1e-10);
    EXPECT_EQ(batch.matches(), stream.matches());
    EXPECT_EQ(batch.cluster_of(), stream.cluster_of());
  }
}

TEST(ResolverStateTest, PreprocessedCorpusIngestsStayOnWorklist) {
  // Ingests that carry terms RemoveFrequentTerms stripped from the corpus
  // grow a positive cluster of those terms, which the worklist contracts
  // geometrically but slowly (ratio ~0.3 per sweep). Counting that tail as
  // a dust limit cycle escalated 17 of these 20 ingests to full sweeps of
  // the whole graph.
  Dataset corpus =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 0.5, 5).dataset;
  RemoveFrequentTerms(&corpus);
  const Dataset fresh =
      GenerateBenchmark(BenchmarkKind::kRestaurant, 0.1, 77).dataset;
  ResolverState state(&corpus);
  ASSERT_TRUE(state.BuildBatch().ok());
  constexpr size_t kIngests = 20;
  for (size_t i = 0; i < kIngests; ++i) {
    ASSERT_TRUE(state.Ingest(0, fresh.record(i).raw_text).ok());
  }
  EXPECT_LE(state.stall_escalations(), 2u);
  EXPECT_LE(state.full_resweeps(), 3u);  // the batch build's one included
}

TEST(IncrementalCancelTest, EveryEntryPointCancelsAtEntry) {
  Dataset data = MakeData();
  CancelToken token;
  ExecContext ctx;
  ctx.cancel = &token;

  {
    Dataset d = MakeData();
    ResolverState state(&d);
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(state.BuildBatch(ctx).code(), StatusCode::kCancelled);
  }
  {
    Dataset d = MakeData();
    ResolverState state(&d);
    ASSERT_TRUE(state.BuildBatch().ok());
    token.Reset();
    token.CancelAfterPolls(0);
    const size_t before = d.size();
    auto r = state.Ingest(0, "cancelled ingest never lands", ctx);
    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    // Entry poll fires BEFORE the dataset mutates.
    EXPECT_EQ(d.size(), before);
    token.Reset();
    EXPECT_TRUE(state.Converge(ctx).ok());
  }
  {
    Dataset d = MakeData();
    ResolverState state(&d);
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(state.IngestExisting(ctx).status().code(),
              StatusCode::kCancelled);
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(state.Converge(ctx).code(), StatusCode::kCancelled);
  }
  {
    BipartiteGraph graph;
    graph.EnsureTerms(4);
    std::vector<double> x(4, 0.5);
    std::vector<double> s;
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(RunIterDirty(graph, {0, 1}, {}, &x, &s, ctx).status().code(),
              StatusCode::kCancelled);
  }
  {
    PairSpace pairs = PairSpace::FromPairs({{0, 1}});
    std::vector<double> benefit{1.0};
    std::vector<double> prob{1.0};
    ProgressiveResult out;
    token.Reset();
    token.CancelAfterPolls(0);
    EXPECT_EQ(
        RunProgressive(2, pairs, benefit, prob, {}, &out, ctx).code(),
        StatusCode::kCancelled);
    // The anytime snapshot is still valid: singletons, nothing emitted.
    EXPECT_EQ(out.num_clusters, 2u);
    EXPECT_EQ(out.matched_count, 0u);
  }
}

TEST(IncrementalCancelTest, CancelledConvergeResumesToSameFixedPoint) {
  // Sweep cancel points through the BuildBatch converge; every cancelled
  // run must recover via Converge() to bitwise the uncancelled weights.
  Dataset reference_data = MakeData();
  ResolverState reference(&reference_data);
  ASSERT_TRUE(reference.BuildBatch().ok());

  for (uint64_t k = 0; k < 24; k += 3) {
    Dataset d = MakeData();
    ResolverState state(&d);
    CancelToken token;
    ExecContext ctx;
    ctx.cancel = &token;
    token.CancelAfterPolls(k);
    Status status = state.BuildBatch(ctx);
    if (!status.ok()) {
      ASSERT_EQ(status.code(), StatusCode::kCancelled) << "k=" << k;
      token.Reset();
      // BuildBatch resumes from the ingest horizon; a converge that was
      // cancelled mid-flight re-runs with a full frontier (the escape
      // hatch doubles as the resume path). Converge() alone also works
      // once the structural loop completed.
      ASSERT_TRUE(state.BuildBatch(ctx).ok()) << "k=" << k;
    }
    // A resume re-converges from a mid-flight state, so its floating-point
    // trajectory differs from the uncancelled run — the contract is the
    // 1e-10 drift bound (same fixed point), not bitwise equality.
    ASSERT_EQ(state.term_weights().size(), reference.term_weights().size());
    for (size_t t = 0; t < state.term_weights().size(); ++t) {
      ASSERT_NEAR(state.term_weights()[t], reference.term_weights()[t],
                  1e-10)
          << "k=" << k << " t=" << t;
    }
    ASSERT_EQ(state.cluster_of(), reference.cluster_of()) << "k=" << k;
  }
}

TEST(ProgressiveTest, UnlimitedBudgetEmitsBatchMatchSet) {
  Dataset data = MakeData();
  ResolverState state(&data);
  ASSERT_TRUE(state.BuildBatch().ok());

  ProgressiveOptions options;
  options.eta = state.options().eta;
  ProgressiveResult out;
  ASSERT_TRUE(RunProgressive(state.num_records(), state.pairs(),
                             state.pair_scores(), state.pair_probability(),
                             options, &out)
                  .ok());
  EXPECT_FALSE(out.budget_exhausted);
  EXPECT_EQ(out.pairs_considered, state.pairs().size());
  EXPECT_EQ(out.matches, state.matches());
  EXPECT_EQ(out.matched_count, state.matched_count());
  EXPECT_EQ(out.cluster_of, state.cluster_of());
  EXPECT_EQ(out.num_clusters, state.num_clusters());
}

TEST(ProgressiveTest, TrippedBudgetYieldsValidPartialSnapshot) {
  Dataset data = MakeData();
  ResolverState state(&data);
  ASSERT_TRUE(state.BuildBatch().ok());

  ProgressiveOptions options;
  options.eta = state.options().eta;
  options.budget_seconds = 1e-12;  // trips at the first poll
  options.poll_stride = 1;
  ProgressiveResult out;
  ASSERT_TRUE(RunProgressive(state.num_records(), state.pairs(),
                             state.pair_scores(), state.pair_probability(),
                             options, &out)
                  .ok());
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_LT(out.pairs_considered, state.pairs().size());
  EXPECT_EQ(out.cluster_of.size(), state.num_records());
  // Whatever was emitted is a prefix of the benefit order: matched pairs
  // all carry probability ≥ eta.
  for (PairId p = 0; p < state.pairs().size(); ++p) {
    if (out.matches[p]) {
      EXPECT_GE(state.pair_probability()[p], options.eta);
    }
  }
}

TEST(ResolverStateTest, CountersAndVersionAdvance) {
  Dataset data = MakeData();
  ResolverState state(&data);
  ASSERT_TRUE(state.BuildBatch().ok());
  EXPECT_EQ(state.records_ingested(), 0u);  // batch build is not an ingest
  EXPECT_EQ(state.dirty_reiter_runs(), 1u);
  EXPECT_EQ(state.full_resweeps(), 1u);  // all-dirty → escape hatch fires
  EXPECT_GT(state.last_converge_sweeps(), 0u);
  EXPECT_FALSE(state.has_pending_dirty());
  const uint64_t v = state.version();

  auto ingest = state.Ingest(0, "kabul afghan cuisine west hollywood");
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(state.records_ingested(), 1u);
  EXPECT_EQ(state.dirty_reiter_runs(), 2u);
  EXPECT_GT(state.version(), v);
  EXPECT_EQ(state.num_records(), data.size());
  EXPECT_EQ(state.cluster_of().size(), data.size());
}

}  // namespace
}  // namespace gter
