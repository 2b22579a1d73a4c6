// batch-paper / batch-product: CSV in, matches out, through the full fusion
// pipeline (5 rounds of ITER + CliqueRank, progressive emission, the
// connected-components endgame), with stage work inline on one thread.
//
// Untraced, each measured iteration is FusionPipeline construction plus
// Run(). Traced, the same work is driven stage by stage through the public
// stage functions, in FusionPipeline::Run's order, with a MetricsRegistry
// on the context; its answer must equal FusionPipeline::Run's bit for bit.
// In-process serving passes on the same dataset, between the iterations,
// supply the read, write and ingest figures (see README.md).
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

#include "common.h"
#include "requests.h"

namespace perfbench {
namespace {

using gter::Dataset;
using gter::FusionConfig;
using gter::FusionResult;

constexpr size_t kSetupRepeats = 10;
constexpr size_t kSetupPerRound = 5;
// Stage work runs inline. With a 2-worker pool, Paper's batch time swung
// from 2.6 to 4.5 s across ten back-to-back runs on a shared 4-vCPU host
// while the single-threaded ingest timings beside it held within 10%: a
// parallel step waits for its slowest worker, so it feels every co-tenant.
constexpr int kStageThreads = 1;
// In-process serving: after every batch iteration, a pass of reads and then
// the held-out records added one by one to a service rebuilt without them.
// Every pass ingests the same records, so each batch iteration's slice of
// the run contributes alike to the ingest figures.
constexpr size_t kServiceWrites = 60;
constexpr size_t kServiceReadsPerPass = 4000;

/// Per-layer totals of one traced pipeline run.
struct StageTimes {
  double pairspace_s = 0.0;
  double bipartite_s = 0.0;
  double record_graph_s = 0.0;
  double iter_s = 0.0;
  double cliquerank_s = 0.0;
  double progressive_s = 0.0;
  double cluster_s = 0.0;
  double gemm_s = 0.0;
  uint64_t gemm_calls = 0;
  double masked_s = 0.0;
  size_t candidate_pairs = 0;
  size_t iter_sweeps = 0;
  size_t iter_converged_rounds = 0;
  size_t progressive_considered = 0;
};

/// FusionPipeline::Run, stage by stage, timing each call from outside.
gter::Status RunStages(const Dataset& dataset, const FusionConfig& config,
                       const gter::ExecContext& base_ctx, FusionResult* out,
                       StageTimes* times) {
  gter::MetricsRegistry registry;
  gter::ExecContext ctx = base_ctx;
  ctx.metrics = &registry;
  const size_t n = dataset.size();
  double t = NowSeconds();
  auto lap = [&t]() {
    const double now = NowSeconds();
    const double elapsed = now - t;
    t = now;
    return elapsed;
  };

  const gter::PairSpace pairs = gter::PairSpace::Build(dataset);
  times->pairspace_s = lap();
  const gter::BipartiteGraph bipartite =
      gter::BipartiteGraph::Build(dataset, pairs, config.pt_mode);
  times->bipartite_s = lap();
  times->candidate_pairs = pairs.size();

  FusionResult& result = *out;
  result.pair_probability.assign(pairs.size(), 1.0);
  for (size_t round = 1; round <= config.rounds; ++round) {
    lap();
    auto iter = gter::RunIter(bipartite, result.pair_probability, config.iter,
                              ctx);
    if (!iter.ok()) return iter.status();
    times->iter_s += lap();
    times->iter_sweeps += iter.value().iterations;
    times->iter_converged_rounds += iter.value().converged;
    result.term_weights = std::move(iter.value().term_weights);
    result.pair_scores = std::move(iter.value().pair_scores);

    const gter::RecordGraph graph =
        gter::RecordGraph::Build(n, pairs, result.pair_scores);
    times->record_graph_s += lap();
    auto cr = gter::RunCliqueRank(graph, pairs, config.cliquerank, ctx);
    if (!cr.ok()) return cr.status();
    times->cliquerank_s += lap();
    result.pair_probability = std::move(cr.value().pair_probability);
  }

  lap();
  gter::ProgressiveOptions progressive_options;
  progressive_options.eta = config.eta;
  gter::ProgressiveResult progressive;
  GTER_RETURN_IF_ERROR(gter::RunProgressive(
      n, pairs, result.pair_scores, result.pair_probability,
      progressive_options, &progressive, ctx));
  times->progressive_s = lap();
  times->progressive_considered = progressive.pairs_considered;
  result.matches = std::move(progressive.matches);

  gter::ClusterProblem problem;
  problem.num_records = n;
  problem.pairs = &pairs;
  problem.pair_probability = &result.pair_probability;
  problem.eta = config.eta;
  std::vector<uint32_t> source_of;
  if (dataset.num_sources() > 1) {
    for (const gter::Record& r : dataset.records()) {
      source_of.push_back(r.source);
    }
    problem.source_of = &source_of;
  }
  auto clustered =
      gter::MakeClusterer(config.clusterer, config.clusterer_options)
          ->Cluster(problem, ctx);
  if (!clustered.ok()) return clustered.status();
  times->cluster_s = lap();
  result.num_clusters = clustered.value().num_clusters;
  result.cluster_of = std::move(clustered.value().cluster_of);

  times->gemm_s = registry.Timer("cliquerank/gemm").seconds;
  times->gemm_calls = registry.Timer("cliquerank/gemm").count;
  times->masked_s = registry.Timer("cliquerank/masked_product").seconds;
  return gter::Status::OK();
}

bool SameAnswer(const FusionResult& a, const FusionResult& b) {
  return a.matches == b.matches && a.cluster_of == b.cluster_of &&
         a.num_clusters == b.num_clusters;
}

double PairwiseF1(const Dataset& dataset, const gter::GroundTruth& truth,
                  const std::vector<bool>& matches) {
  const gter::PairSpace pairs = gter::PairSpace::Build(dataset);
  const gter::Confusion c = gter::EvaluatePairPredictions(
      pairs, matches, gter::LabelPairs(pairs, truth),
      gter::TotalPositives(dataset, truth));
  return c.F1();
}

/// F1 that `gter_cli resolve` + `gter_cli evaluate` report for `csv`, as
/// printed (four decimals); empty when the tools fail.
std::string CliF1(const RunOptions& options, const std::string& csv,
                  uint32_t sources) {
  const std::string matches = csv + ".matches.csv";
  const std::string log = csv + ".cli.log";
  const std::string src = "--sources=" + std::to_string(sources);
  if (RunChild({options.gter_cli, "resolve", "--in=" + csv, src,
                "--matches=" + matches,
                "--threads=" + std::to_string(kStageThreads)},
               log) != 0 ||
      RunChild({options.gter_cli, "evaluate", "--in=" + csv, src,
                "--matches=" + matches},
               log) != 0) {
    return "";
  }
  std::ifstream in(log);
  std::stringstream text;
  text << in.rdbuf();
  const std::string s = text.str();
  const size_t at = s.find("F1 ");
  if (at == std::string::npos) return "";
  return s.substr(at + 3, s.find_first_of(" \n", at + 3) - (at + 3));
}

}  // namespace

bool RunBatchWorkload(const RunOptions& options, gter::BenchmarkKind kind,
                      double scale, RunResult* result) {
  gter::GeneratedDataset generated =
      gter::GenerateBenchmark(kind, scale, kCorpusSeed);
  const uint32_t sources = generated.dataset.num_sources();
  const std::string csv = options.workdir + "/" + options.workload + ".csv";
  if (gter::Status s =
          gter::SaveDatasetCsv(csv, generated.dataset, generated.truth);
      !s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", csv.c_str(),
                 s.ToString().c_str());
    return false;
  }

  // Set-up: what `gter_cli resolve` does before fusion. It is repeated
  // between measured iterations too, so its median spans the whole run.
  std::vector<double> setup_s;
  Dataset dataset;
  gter::GroundTruth truth;
  auto set_up = [&]() {
    const double start = NowSeconds();
    auto loaded = gter::LoadDatasetCsv(csv, "input", sources);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", csv.c_str(),
                   loaded.status().ToString().c_str());
      return false;
    }
    std::tie(dataset, truth) = std::move(loaded).value();
    gter::RemoveFrequentTerms(&dataset);
    setup_s.push_back(NowSeconds() - start);
    return true;
  };
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    if (!set_up()) return false;
  }
  // The batch runs read this copy; set_up() keeps overwriting `dataset`.
  const Dataset loaded = dataset;

  std::unique_ptr<gter::ThreadPool> pool = gter::MakeThreadPool(kStageThreads);
  gter::ExecContext ctx;
  ctx.pool = pool.get();
  const FusionConfig config;  // gter_cli resolve's defaults

  std::vector<double> batch_s;
  std::vector<StageTimes> stages;
  std::optional<FusionResult> reference;
  auto pipeline_run = [&]() -> gter::Result<FusionResult> {
    gter::FusionPipeline pipeline(loaded, config);
    return pipeline.Run(ctx);
  };
  if (options.trace) {
    auto run = pipeline_run();
    ++result->attempted;
    if (!run.ok()) {
      ++result->failed;
      result->Fail("FusionPipeline::Run failed: " + run.status().ToString());
      return true;
    }
    reference = std::move(run).value();
  }
  // A fixed write stream, like the corpus; the reads come from --seed.
  const std::vector<gter::RecordId> tail =
      SampleRecords(loaded.size(), kServiceWrites, kCorpusSeed);
  ServiceSession service(loaded, Remaining(loaded.size(), tail), tail,
                         options.seed, options.trace, result);

  // Batch iterations alternate with service passes and set-up steps, so a
  // slow spell of the machine lands on every metric's samples alike.
  size_t passes = 0;
  const double loop_start = NowSeconds();
  while (batch_s.empty() || NowSeconds() - loop_start < options.seconds) {
    ++result->attempted;
    FusionResult answer;
    const double start = NowSeconds();
    gter::Status status;
    if (options.trace) {
      StageTimes times;
      status = RunStages(loaded, config, ctx, &answer, &times);
      stages.push_back(times);
    } else {
      auto run = pipeline_run();
      status = run.status();
      if (run.ok()) answer = std::move(run).value();
    }
    batch_s.push_back(NowSeconds() - start);
    if (!status.ok()) {
      ++result->failed;
      result->Fail("batch run failed: " + status.ToString());
    } else if (!reference.has_value()) {
      reference = std::move(answer);
    } else if (!SameAnswer(answer, *reference)) {
      result->Fail(options.trace
                       ? "stage-by-stage run disagrees with FusionPipeline::Run"
                       : "repeated FusionPipeline::Run disagrees with itself");
    }
    if (passes++ > 0) service.Restart();
    service.Step(kServiceReadsPerPass, kServiceWrites);
    for (size_t i = 0; i < kSetupPerRound; ++i) {
      if (!set_up()) return false;
    }
  }
  if (!reference.has_value()) return true;
  const double f1 = PairwiseF1(loaded, truth, reference->matches);
  if (options.trace) {
    char mine[32];
    std::snprintf(mine, sizeof(mine), "%.4f", f1);
    const std::string cli = CliF1(options, csv, sources);
    Report("f1 cross-check: benchmark %s, gter_cli resolve+evaluate %s", mine,
           cli.empty() ? "(failed)" : cli.c_str());
    if (cli != mine) result->Fail("f1 differs from gter_cli resolve+evaluate");
  }

  const ServicePhase& phase = service.phase();
  result->attempted += phase.attempted;
  result->failed += phase.failed;

  result->E2e("setup_s", Median(setup_s), "s");
  result->E2e("batch_s", Median(batch_s), "s");
  result->E2e("f1", f1, "ratio");
  result->E2e("peak_rss_mb", SelfPeakRssMb(), "MB");
  result->E2e("ingest_p50_ms",
              QuantileOfMeans(phase.write_ms, phase.write_op, 0.50), "ms");
  result->E2e("ingest_p95_ms",
              QuantileOfMeans(phase.write_ms, phase.write_op, 0.95), "ms");
  result->E2e("ingest_per_s",
              static_cast<double>(phase.write_ms.size()) * 1e3 /
                  Sum(phase.write_ms),
              "1/s");
  EmitServiceMetrics(phase, result);

  if (options.trace) {
    auto median_of = [&](double StageTimes::*field) {
      std::vector<double> v;
      for (const StageTimes& s : stages) v.push_back(s.*field * 1e3);
      return Median(v);
    };
    const StageTimes& first = stages.front();
    const double n = static_cast<double>(loaded.size());
    std::vector<double> gflops;
    for (const StageTimes& s : stages) {
      gflops.push_back(s.gemm_s > 0.0 ? static_cast<double>(s.gemm_calls) *
                                            2.0 * n * n * n / s.gemm_s / 1e9
                                      : 0.0);
    }
    result->Layer("er.pairspace_build_ms", median_of(&StageTimes::pairspace_s),
                  "ms");
    result->Layer("er.candidate_pairs",
                  static_cast<double>(first.candidate_pairs), "count");
    result->Layer("graph.bipartite_build_ms",
                  median_of(&StageTimes::bipartite_s), "ms");
    result->Layer("graph.record_graph_build_ms",
                  median_of(&StageTimes::record_graph_s), "ms");
    result->Layer("core.iter_ms", median_of(&StageTimes::iter_s), "ms");
    result->Layer("core.iter_sweeps", static_cast<double>(first.iter_sweeps),
                  "count");
    result->Layer("core.iter_converged_rounds",
                  static_cast<double>(first.iter_converged_rounds), "count");
    result->Layer("core.cliquerank_ms", median_of(&StageTimes::cliquerank_s),
                  "ms");
    result->Layer("matrix.gemm_ms", median_of(&StageTimes::gemm_s), "ms");
    result->Layer("matrix.gemm_gflops", Median(gflops), "GFLOP/s");
    result->Layer("matrix.masked_product_ms", median_of(&StageTimes::masked_s),
                  "ms");
    result->Layer("core.progressive_ms", median_of(&StageTimes::progressive_s),
                  "ms");
    result->Layer("core.progressive_considered",
                  static_cast<double>(first.progressive_considered), "count");
    result->Layer("core.cluster_ms", median_of(&StageTimes::cluster_s), "ms");
    phase.layer.Emit(result, passes);
  }
  return true;
}

}  // namespace perfbench
