#ifndef GTER_GTER_H_
#define GTER_GTER_H_

/// \file
/// Umbrella header for the gter library — a from-scratch C++20
/// implementation of "A Graph-Theoretic Fusion Framework for Unsupervised
/// Entity Resolution" (ICDE 2018): the ITER + CliqueRank fusion pipeline,
/// every baseline the paper evaluates against, the evaluation protocol,
/// and synthetic benchmark generators.
///
/// Quickstart:
///
///   gter::GeneratedDataset data =
///       gter::GenerateBenchmark(gter::BenchmarkKind::kRestaurant);
///   gter::RemoveFrequentTerms(&data.dataset);
///   gter::FusionPipeline pipeline(data.dataset, gter::FusionConfig{});
///   gter::FusionResult result = pipeline.Run().value();
///   // result.matches[p] — decision for candidate pair p
///   // result.pair_probability[p] — matching probability in [0, 1]
///
/// Stage entry points take a gter::ExecContext (worker pool, metrics and
/// trace sinks, SIMD level, cancellation token); the default context runs
/// sequentially with ambient observability and no cancellation.

#include "gter/common/common_flags.h"
#include "gter/common/cpu.h"
#include "gter/common/exec_context.h"
#include "gter/common/flags.h"
#include "gter/common/json.h"
#include "gter/common/logging.h"
#include "gter/common/metrics.h"
#include "gter/common/prom.h"
#include "gter/common/random.h"
#include "gter/common/run_report.h"
#include "gter/common/status.h"
#include "gter/common/thread_pool.h"
#include "gter/common/timer.h"
#include "gter/common/trace.h"

#include "gter/text/normalizer.h"
#include "gter/text/string_metrics.h"
#include "gter/text/tfidf.h"
#include "gter/text/tokenizer.h"
#include "gter/text/vocabulary.h"

#include "gter/matrix/csr_matrix.h"
#include "gter/matrix/dense_matrix.h"
#include "gter/matrix/gemm.h"
#include "gter/matrix/masked_multiply.h"

#include "gter/er/blocking.h"
#include "gter/er/csv.h"
#include "gter/er/dataset.h"
#include "gter/er/ground_truth.h"
#include "gter/er/pair_space.h"
#include "gter/er/preprocess.h"
#include "gter/er/record.h"

#include "gter/graph/bipartite_graph.h"
#include "gter/graph/connected_components.h"
#include "gter/graph/pagerank.h"
#include "gter/graph/record_graph.h"
#include "gter/graph/term_graph.h"
#include "gter/graph/union_find.h"

#include "gter/datagen/datagen.h"
#include "gter/datagen/noise.h"
#include "gter/datagen/paper_gen.h"
#include "gter/datagen/product_gen.h"
#include "gter/datagen/restaurant_gen.h"
#include "gter/datagen/vocab_bank.h"

#include "gter/eval/cluster_metrics.h"
#include "gter/eval/confusion.h"
#include "gter/eval/pr_curve.h"
#include "gter/eval/spearman.h"
#include "gter/eval/term_score.h"
#include "gter/eval/threshold_sweep.h"

#include "gter/baselines/edit_distance_resolver.h"
#include "gter/baselines/hybrid.h"
#include "gter/baselines/jaccard_resolver.h"
#include "gter/baselines/simrank.h"
#include "gter/baselines/tfidf_resolver.h"
#include "gter/baselines/twidf_pagerank.h"
#include "gter/baselines/ml/bootstrap_gmm.h"
#include "gter/baselines/ml/features.h"
#include "gter/baselines/ml/fellegi_sunter.h"
#include "gter/baselines/ml/gmm.h"
#include "gter/baselines/ml/linear_svm.h"
#include "gter/baselines/crowd/acd.h"
#include "gter/baselines/crowd/crowder.h"
#include "gter/baselines/crowd/gcer.h"
#include "gter/baselines/crowd/oracle.h"
#include "gter/baselines/crowd/power_plus.h"
#include "gter/baselines/crowd/transm.h"

#include "gter/core/cliquerank.h"
#include "gter/core/clusterer.h"
#include "gter/core/correlation_clustering.h"
#include "gter/core/fusion.h"
#include "gter/core/iter.h"
#include "gter/core/model_io.h"
#include "gter/core/progressive.h"
#include "gter/core/resolver.h"
#include "gter/core/resolver_state.h"
#include "gter/core/rss.h"

#include "gter/server/client.h"
#include "gter/server/protocol.h"
#include "gter/server/server.h"
#include "gter/server/service.h"

#endif  // GTER_GTER_H_
