// ingest-stream: the incremental engine alone. A ~10k-record Restaurant
// corpus (the BM_IncrementalIngest corpus) is batch-built with
// ResolverState::BuildBatch, then a fixed stream of held-out records goes
// through ResolverState::Ingest from one caller, with no lock or queue in
// front of it. Half the stream belongs to entities that keep a record in
// the corpus, half to entities the corpus has never seen.
//
// The stream is replayed from a fresh build until the run's time is used
// up. After every replay the clustering must equal a BuildBatch over the
// same final dataset (the streamed-vs-batch contract).
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "requests.h"

namespace perfbench {
namespace {

using gter::Dataset;
using gter::RecordId;

constexpr double kCorpusScale = 11.66;  // 10,004 records at scale 1 = 858
constexpr size_t kStreamRecords = 200;
constexpr size_t kSetupRepeats = 5;
constexpr size_t kServiceWrites = 20;
constexpr size_t kServiceReads = 1000;

/// Held-out stream: up to `count / 2` records of entities that keep at
/// least one record in the corpus, the rest from single-record entities,
/// shuffled together.
std::vector<RecordId> PickStream(const gter::GroundTruth& truth, size_t count,
                                 uint64_t seed, size_t* known) {
  std::vector<RecordId> repeated, fresh;
  for (const std::vector<RecordId>& members : truth.clusters()) {
    if (members.size() == 1) {
      fresh.push_back(members[0]);
    } else {
      // Leave the first member in the corpus.
      repeated.insert(repeated.end(), members.begin() + 1, members.end());
    }
  }
  gter::Rng rng(seed);
  rng.Shuffle(&repeated);
  rng.Shuffle(&fresh);
  repeated.resize(std::min(repeated.size(), count / 2));
  fresh.resize(std::min(fresh.size(), count - repeated.size()));
  *known = repeated.size();
  std::vector<RecordId> stream = repeated;
  stream.insert(stream.end(), fresh.begin(), fresh.end());
  rng.Shuffle(&stream);
  return stream;
}

double MatchF1(const gter::ResolverState& state,
               const gter::GroundTruth& truth) {
  const gter::Confusion c = gter::EvaluatePairPredictions(
      state.pairs(), state.matches(), gter::LabelPairs(state.pairs(), truth),
      gter::TotalPositives(state.dataset(), truth));
  return c.F1();
}

}  // namespace

bool RunIngestWorkload(const RunOptions& options, RunResult* result) {
  gter::GeneratedDataset generated = gter::GenerateBenchmark(
      gter::BenchmarkKind::kRestaurant, kCorpusScale, kCorpusSeed);
  const Dataset& all = generated.dataset;
  size_t known = 0;
  const std::vector<RecordId> stream =
      PickStream(generated.truth, kStreamRecords, options.seed, &known);
  const std::vector<RecordId> corpus_ids = Remaining(all.size(), stream);
  Dataset corpus = Subset(all, corpus_ids);
  gter::RemoveFrequentTerms(&corpus);
  // Truth in the order records end up in the state: corpus, then stream.
  std::vector<gter::EntityId> entity_of;
  for (RecordId r : corpus_ids) entity_of.push_back(generated.truth.entity_of(r));
  for (RecordId r : stream) entity_of.push_back(generated.truth.entity_of(r));
  const gter::GroundTruth final_truth(entity_of);
  Report("ingest-stream: corpus %zu records, stream %zu records, %.3f of "
         "them of entities already in the corpus",
         corpus.size(), stream.size(),
         static_cast<double>(known) / static_cast<double>(stream.size()));

  gter::MetricsRegistry registry;
  gter::ExecContext ctx;  // one caller, stage work inline
  if (options.trace) ctx.metrics = &registry;

  std::vector<double> setup_s;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    Dataset copy = corpus;
    gter::ResolverState state(&copy);
    const double start = NowSeconds();
    const gter::Status built = state.BuildBatch(ctx);
    setup_s.push_back(NowSeconds() - start);
    if (!built.ok()) {
      result->Fail("BuildBatch failed: " + built.ToString());
      return true;
    }
  }

  std::vector<double> ingest_ms, rebuild_s;
  std::vector<size_t> ingest_op;  // position in the stream
  IngestLayer layer;
  double f1 = 0.0;
  size_t final_pairs = 0;
  const double loop_start = NowSeconds();
  while (rebuild_s.empty() || NowSeconds() - loop_start < options.seconds) {
    Dataset dataset = corpus;
    gter::ResolverState state(&dataset);
    if (gter::Status s = state.BuildBatch(ctx); !s.ok()) {
      result->Fail("BuildBatch failed: " + s.ToString());
      return true;
    }
    const IngestLayer::Sample before = IngestLayer::Read(registry);
    for (RecordId r : stream) {
      const gter::Record& rec = all.record(r);
      ++result->attempted;
      const double start = NowSeconds();
      auto ingested = state.Ingest(rec.source, rec.raw_text, ctx);
      ingest_ms.push_back((NowSeconds() - start) * 1e3);
      ingest_op.push_back(ingest_op.size() % stream.size());
      if (!ingested.ok()) {
        ++result->failed;
        result->Fail("Ingest failed: " + ingested.status().ToString());
        return true;
      }
      layer.AddStats(ingested.value());
    }
    layer.AddDelta(before, IngestLayer::Read(registry));

    // The streamed state must resolve exactly like a batch build over the
    // dataset it ended with.
    Dataset final_dataset = state.dataset();
    gter::ResolverState rebuilt(&final_dataset);
    const double start = NowSeconds();
    if (gter::Status s = rebuilt.BuildBatch(); !s.ok()) {
      result->Fail("final BuildBatch failed: " + s.ToString());
      return true;
    }
    rebuild_s.push_back(NowSeconds() - start);
    if (rebuilt.cluster_of() != state.cluster_of() ||
        rebuilt.matches() != state.matches()) {
      result->Fail("streamed clustering differs from BuildBatch over the "
                   "final dataset");
    }
    f1 = MatchF1(state, final_truth);
    final_pairs = state.pairs().size();
  }

  // Read and write latency come from the serving layer in process: the
  // corpus served by an incremental ResolutionService, the stream's first
  // records added through add_record.
  ServiceSession service(all, corpus_ids, stream, options.seed,
                         /*traced=*/false, result);
  service.Step(kServiceReads, kServiceWrites);
  const ServicePhase& phase = service.phase();
  result->attempted += phase.attempted;
  result->failed += phase.failed;

  result->E2e("setup_s", Median(setup_s), "s");
  result->E2e("batch_s", Median(rebuild_s), "s");
  result->E2e("f1", f1, "ratio");
  result->E2e("peak_rss_mb", SelfPeakRssMb(), "MB");
  result->E2e("ingest_p50_ms", QuantileOfMeans(ingest_ms, ingest_op, 0.50),
              "ms");
  result->E2e("ingest_p95_ms", QuantileOfMeans(ingest_ms, ingest_op, 0.95),
              "ms");
  result->E2e("ingest_per_s",
              static_cast<double>(ingest_ms.size()) * 1e3 / Sum(ingest_ms),
              "1/s");
  EmitServiceMetrics(phase, result);

  if (options.trace) {
    result->Layer("er.candidate_pairs", static_cast<double>(final_pairs),
                  "count");
    layer.Emit(result, rebuild_s.size());
  }
  return true;
}

}  // namespace perfbench
