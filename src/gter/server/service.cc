#include "gter/server/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>
#include <unordered_map>

#include "gter/common/metrics.h"
#include "gter/common/timer.h"
#include "gter/common/trace.h"
#include "gter/core/clusterer.h"
#include "gter/text/tokenizer.h"

namespace gter {
namespace {

// ScopedTimer/trace names must be string literals (the sinks store the
// pointer), so the per-method span name goes through this table.
const char* MethodTimerName(const std::string& method) {
  if (method == "pair_score") return "server/pair_score";
  if (method == "resolve") return "server/resolve";
  if (method == "add_record") return "server/add_record";
  if (method == "stats") return "server/stats";
  if (method == "debug_sleep") return "server/debug_sleep";
  return "server/unknown_method";
}

Result<uint32_t> GetUint32Param(const JsonValue& params, const char* key) {
  const JsonValue* v = params.Find(key);
  if (v == nullptr || !v->is_number() ||
      v->number() != std::floor(v->number()) || v->number() < 0 ||
      v->number() > static_cast<double>(
                        std::numeric_limits<uint32_t>::max())) {
    return Status::InvalidArgument(std::string("param '") + key +
                                   "' must be an unsigned integer");
  }
  return static_cast<uint32_t>(v->number());
}

Result<std::string> GetStringParam(const JsonValue& params, const char* key) {
  const JsonValue* v = params.Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument(std::string("param '") + key +
                                   "' must be a string");
  }
  return v->string();
}

}  // namespace

ResolutionService::ResolutionService(Dataset dataset,
                                     ResolutionServiceOptions options)
    : dataset_(std::move(dataset)),
      options_(std::move(options)),
      start_time_(std::chrono::steady_clock::now()) {
  // Ingested records and query text must tokenize the way the training
  // corpus did.
  dataset_.set_tokenizer_options(options_.tokenizer);
}

Result<std::unique_ptr<ResolutionService>> ResolutionService::Create(
    Dataset dataset, ResolutionServiceOptions options, const ExecContext& ctx) {
  std::unique_ptr<ResolutionService> service(
      new ResolutionService(std::move(dataset), std::move(options)));
  GTER_RETURN_IF_ERROR(service->Train(ctx));
  return service;
}

Status ResolutionService::Train(const ExecContext& ctx) {
  if (options_.incremental) {
    // Incremental mode: the startup "training" is a ResolverState batch
    // build over the loaded dataset; every later add_record extends it.
    Stopwatch watch;
    state_ = std::make_unique<ResolverState>(&dataset_, options_.resolver);
    GTER_RETURN_IF_ERROR(state_->BuildBatch(ctx));
    train_seconds_ = watch.ElapsedSeconds();
    source_of_.clear();
    source_of_.reserve(dataset_.size());
    for (const Record& r : dataset_.records()) source_of_.push_back(r.source);
    return Status::OK();
  }
  FusionPipeline pipeline(dataset_, options_.fusion);
  Result<FusionResult> run = pipeline.Run(ctx);
  if (!run.ok()) return run.status();
  FusionResult result = std::move(run).value();

  term_weights_ = std::move(result.term_weights);
  term_weights_.resize(dataset_.vocabulary().size(), 0.0);
  pairs_ = pipeline.pairs();
  pair_scores_ = std::move(result.pair_scores);
  pair_probability_ = std::move(result.pair_probability);
  matches_ = std::move(result.matches);
  train_seconds_ = result.total_seconds;
  matched_count_ = 0;
  for (bool m : matches_) matched_count_ += m;

  // The entity partition comes from the pipeline's configured clustering
  // endgame (connected components by default — the historical closure).
  cluster_of_ = std::move(result.cluster_of);
  uint32_t num_clusters = 0;
  for (uint32_t c : cluster_of_) num_clusters = std::max(num_clusters, c + 1);
  cluster_members_.assign(num_clusters, {});
  for (RecordId r = 0; r < cluster_of_.size(); ++r) {
    cluster_members_[cluster_of_[r]].push_back(r);
  }
  inverted_ = dataset_.BuildInvertedIndex();
  inverted_.resize(dataset_.vocabulary().size());
  source_of_.clear();
  source_of_.reserve(dataset_.size());
  for (const Record& r : dataset_.records()) source_of_.push_back(r.source);
  return Status::OK();
}

size_t ResolutionService::num_records() const {
  std::shared_lock lock(mu_);
  return dataset_.size();
}

Result<JsonValue> ResolutionService::Handle(const GterdRequest& request,
                                            const ExecContext& ctx) {
  requests_total_.fetch_add(1, std::memory_order_relaxed);
  ScopedTimer timer(ctx.metrics_or_ambient(), ctx.trace_or_ambient(),
                    MethodTimerName(request.method));
  Result<JsonValue> result = [&]() -> Result<JsonValue> {
    // Covers deadline-expired-while-queued: a request admitted before its
    // deadline but scheduled after it answers DeadlineExceeded here.
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    if (request.method == "pair_score") return PairScore(request.params, ctx);
    if (request.method == "resolve") return Resolve(request.params, ctx);
    if (request.method == "add_record") {
      return AddRecord(request.params, ctx);
    }
    if (request.method == "stats") return Stats(ctx);
    if (request.method == "debug_sleep") {
      auto ms = GetUint32Param(request.params, "ms");
      if (!ms.ok()) return ms.status();
      // Cooperative idle: poll cancellation every millisecond so a
      // deadline or a dropped connection unwinds promptly.
      const auto end = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(ms.value());
      while (std::chrono::steady_clock::now() < end) {
        GTER_RETURN_IF_ERROR(ctx.CheckCancel());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      JsonValue out = JsonValue::MakeObject();
      out.Set("slept_ms", JsonValue::MakeNumber(ms.value()));
      return out;
    }
    return Status::NotFound("unknown method '" + request.method + "'");
  }();
  if (!result.ok()) requests_failed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

double ResolutionService::SharedTermWeight(const std::vector<TermId>& a,
                                           const std::vector<TermId>& b) const {
  double sum = 0.0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      sum += WeightsView()[a[i]];
      ++i;
      ++j;
    }
  }
  return sum;
}

Result<JsonValue> ResolutionService::PairScore(const JsonValue& params,
                                               const ExecContext& ctx) const {
  auto a = GetUint32Param(params, "a");
  if (!a.ok()) return a.status();
  auto b = GetUint32Param(params, "b");
  if (!b.ok()) return b.status();
  GTER_RETURN_IF_ERROR(ctx.CheckCancel());

  std::shared_lock lock(mu_);
  if (a.value() >= dataset_.size() || b.value() >= dataset_.size()) {
    return Status::OutOfRange("record id out of range (dataset has " +
                              std::to_string(dataset_.size()) + " records)");
  }
  JsonValue out = JsonValue::MakeObject();
  out.Set("a", JsonValue::MakeNumber(a.value()));
  out.Set("b", JsonValue::MakeNumber(b.value()));
  PairId p = PairsView().Find(a.value(), b.value());
  if (p != kInvalidPairId) {
    // Candidate pair: serve the model's score verbatim (live in
    // incremental mode, fusion-trained otherwise).
    out.Set("score", JsonValue::MakeNumber(ScoresView()[p]));
    out.Set("probability", JsonValue::MakeNumber(ProbabilityView()[p]));
    out.Set("match", JsonValue::MakeBool(MatchesView()[p]));
    out.Set("in_candidate_space", JsonValue::MakeBool(true));
  } else {
    // Outside the candidate space (no shared term at training time, or a
    // record ingested after training): score online from term weights.
    out.Set("score",
            JsonValue::MakeNumber(SharedTermWeight(
                dataset_.record(a.value()).terms,
                dataset_.record(b.value()).terms)));
    out.Set("probability", JsonValue::MakeNull());
    out.Set("match", JsonValue::MakeBool(false));
    out.Set("in_candidate_space", JsonValue::MakeBool(false));
  }
  return out;
}

Result<JsonValue> ResolutionService::Resolve(const JsonValue& params,
                                             const ExecContext& ctx) const {
  auto text = GetStringParam(params, "text");
  if (!text.ok()) return text.status();
  size_t top_k = 1;
  if (params.Find("top_k") != nullptr) {
    auto k = GetUint32Param(params, "top_k");
    if (!k.ok()) return k.status();
    if (k.value() == 0 || k.value() > 1000) {
      return Status::InvalidArgument("param 'top_k' must be in [1, 1000]");
    }
    top_k = k.value();
  }
  // Optional clustering-endgame override, validated before any work so an
  // unknown name answers InvalidArgument even for queries with no matches.
  std::optional<ClustererKind> endgame;
  if (params.Find("clusterer") != nullptr) {
    auto name = GetStringParam(params, "clusterer");
    if (!name.ok()) return name.status();
    auto kind = ParseClustererKind(name.value());
    if (!kind.ok()) return kind.status();
    endgame = kind.value();
  }

  std::shared_lock lock(mu_);

  // Re-cluster the trained probabilities under the request's context: the
  // clusterer polls `ctx`, so a per-request deadline fires mid-run and the
  // status propagates out as DeadlineExceeded. Records ingested after
  // training have no candidate pairs and come out as singletons.
  std::vector<uint32_t> fresh_cluster_of;
  if (endgame.has_value()) {
    ClusterProblem problem;
    problem.num_records = dataset_.size();
    problem.pairs = &PairsView();
    problem.pair_probability = &ProbabilityView();
    problem.eta = Eta();
    if (dataset_.num_sources() > 1) problem.source_of = &source_of_;
    Result<Clustering> fresh =
        MakeClusterer(*endgame, options_.fusion.clusterer_options)
            ->Cluster(problem, ctx);
    if (!fresh.ok()) return fresh.status();
    fresh_cluster_of = std::move(fresh).value().cluster_of;
  }
  // Query terms: tokenize like the corpus, keep the sorted unique ids that
  // exist in the trained vocabulary.
  std::vector<TermId> query_terms;
  for (const std::string& token : Tokenize(text.value(), options_.tokenizer)) {
    TermId t = dataset_.vocabulary().Lookup(token);
    if (t != kInvalidTermId) query_terms.push_back(t);
  }
  std::sort(query_terms.begin(), query_terms.end());
  query_terms.erase(std::unique(query_terms.begin(), query_terms.end()),
                    query_terms.end());

  // Accumulate s(q, r) = Σ_{t shared} x_t over the inverted index, plus
  // the raw overlap count. Zero-weight terms (singletons never reinforced
  // by a candidate pair) still nominate candidates: their postings are
  // short by construction, and an exact-text query must find its record
  // even when every distinctive term is a singleton.
  struct Candidate {
    double score = 0.0;
    uint32_t overlap = 0;
  };
  std::unordered_map<RecordId, Candidate> scores;
  size_t postings_since_poll = 0;
  for (TermId t : query_terms) {
    GTER_RETURN_IF_ERROR(ctx.CheckCancel());
    const double w = WeightsView()[t];
    for (RecordId r : InvertedView()[t]) {
      Candidate& c = scores[r];
      c.score += w;
      ++c.overlap;
      if (++postings_since_poll >= 4096) {
        postings_since_poll = 0;
        GTER_RETURN_IF_ERROR(ctx.CheckCancel());
      }
    }
  }

  // Deterministic ranking: learned score descending, then term overlap
  // descending (separates zero-score candidates), then record id.
  struct Ranked {
    double score;
    uint32_t overlap;
    RecordId record;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(scores.size());
  for (const auto& [r, c] : scores) {
    ranked.push_back({c.score, c.overlap, r});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& x, const Ranked& y) {
    if (x.score != y.score) return x.score > y.score;
    if (x.overlap != y.overlap) return x.overlap > y.overlap;
    return x.record < y.record;
  });
  if (ranked.size() > top_k) ranked.resize(top_k);

  JsonValue out = JsonValue::MakeObject();
  out.Set("query_terms", JsonValue::MakeNumber(query_terms.size()));
  out.Set("num_candidates", JsonValue::MakeNumber(scores.size()));
  JsonValue top = JsonValue::MakeArray();
  for (const Ranked& entry_data : ranked) {
    JsonValue entry = JsonValue::MakeObject();
    entry.Set("record", JsonValue::MakeNumber(entry_data.record));
    entry.Set("score", JsonValue::MakeNumber(entry_data.score));
    entry.Set("overlap", JsonValue::MakeNumber(entry_data.overlap));
    top.Append(std::move(entry));
  }
  out.Set("top", std::move(top));
  if (endgame.has_value()) {
    out.Set("clusterer",
            JsonValue::MakeString(ClustererKindName(*endgame)));
  }
  if (ranked.empty()) {
    out.Set("best", JsonValue::MakeNull());
    out.Set("clique", JsonValue::MakeArray());
    return out;
  }
  const RecordId best = ranked.front().record;
  // A record can lack a cluster label only in incremental mode, when a
  // cancelled ingest left the decision pass pending: serve it as a
  // singleton until the next converge labels it.
  const std::vector<uint32_t>& labels =
      endgame.has_value() ? fresh_cluster_of : ClusterOfView();
  JsonValue best_obj = JsonValue::MakeObject();
  best_obj.Set("record", JsonValue::MakeNumber(best));
  best_obj.Set("score", JsonValue::MakeNumber(ranked.front().score));
  JsonValue clique = JsonValue::MakeArray();
  if (best >= labels.size()) {
    best_obj.Set("cluster", JsonValue::MakeNull());
    clique.Append(JsonValue::MakeNumber(best));
  } else {
    const uint32_t best_cluster = labels[best];
    best_obj.Set("cluster", JsonValue::MakeNumber(best_cluster));
    // The matching clique: every record resolved to the same entity as
    // the best match (including the best match itself).
    if (endgame.has_value()) {
      for (RecordId r = 0; r < labels.size(); ++r) {
        if (labels[r] == best_cluster) {
          clique.Append(JsonValue::MakeNumber(r));
        }
      }
    } else {
      for (RecordId member : ClusterMembersView()[best_cluster]) {
        clique.Append(JsonValue::MakeNumber(member));
      }
    }
  }
  best_obj.Set("text", JsonValue::MakeString(dataset_.record(best).raw_text));
  out.Set("best", std::move(best_obj));
  out.Set("clique", std::move(clique));
  return out;
}

Result<JsonValue> ResolutionService::AddRecord(const JsonValue& params,
                                               const ExecContext& ctx) {
  auto text = GetStringParam(params, "text");
  if (!text.ok()) return text.status();
  uint32_t source = 0;
  if (params.Find("source") != nullptr) {
    auto s = GetUint32Param(params, "source");
    if (!s.ok()) return s.status();
    source = s.value();
  }

  std::unique_lock lock(mu_);
  if (source >= dataset_.num_sources()) {
    return Status::OutOfRange("source " + std::to_string(source) +
                              " out of range (dataset has " +
                              std::to_string(dataset_.num_sources()) +
                              " sources)");
  }
  JsonValue out = JsonValue::MakeObject();
  if (state_ != nullptr) {
    // Incremental mode: a real ingest — O(neighborhood) structural update
    // plus a dirty-region re-ITER under the request's deadline. The
    // response reports the cluster the record resolved into.
    Result<IngestStats> ingest = state_->Ingest(source, text.value(), ctx);
    if (!ingest.ok()) return ingest.status();
    const IngestStats& stats = ingest.value();
    source_of_.push_back(source);
    records_added_.fetch_add(1, std::memory_order_relaxed);
    out.Set("record", JsonValue::MakeNumber(stats.record));
    out.Set("cluster", JsonValue::MakeNumber(stats.cluster));
    out.Set("cluster_size", JsonValue::MakeNumber(stats.cluster_size));
    out.Set("new_terms", JsonValue::MakeNumber(stats.new_terms));
    out.Set("new_pairs", JsonValue::MakeNumber(stats.new_pairs));
    out.Set("sweeps", JsonValue::MakeNumber(stats.sweeps));
  } else {
    const size_t vocab_before = dataset_.vocabulary().size();
    RecordId id = dataset_.AddRecord(source, text.value());
    // Terms interned by this record get zero weight until the next
    // training run; the record scores through the terms it shares with
    // the trained vocabulary.
    term_weights_.resize(dataset_.vocabulary().size(), 0.0);
    inverted_.resize(dataset_.vocabulary().size());
    for (TermId t : dataset_.record(id).terms) {
      inverted_[t].push_back(id);  // id is the largest, so order is kept
    }
    const uint32_t cluster = static_cast<uint32_t>(cluster_members_.size());
    cluster_of_.push_back(cluster);
    cluster_members_.push_back({id});
    source_of_.push_back(source);
    records_added_.fetch_add(1, std::memory_order_relaxed);
    out.Set("record", JsonValue::MakeNumber(id));
    out.Set("cluster", JsonValue::MakeNumber(cluster));
    out.Set("cluster_size", JsonValue::MakeNumber(1));
    out.Set("new_terms", JsonValue::MakeNumber(dataset_.vocabulary().size() -
                                               vocab_before));
  }
  // Post-ingest sizes, so a streaming client tracks dataset growth without
  // a stats round-trip.
  out.Set("records", JsonValue::MakeNumber(dataset_.size()));
  out.Set("vocabulary_terms",
          JsonValue::MakeNumber(dataset_.vocabulary().size()));
  return out;
}

namespace {

/// Percentile triple for one sliding-histogram snapshot.
JsonValue PercentilesJson(const Histogram& h) {
  JsonValue out = JsonValue::MakeObject();
  out.Set("p50", JsonValue::MakeNumber(h.Quantile(0.50)));
  out.Set("p95", JsonValue::MakeNumber(h.Quantile(0.95)));
  out.Set("p99", JsonValue::MakeNumber(h.Quantile(0.99)));
  return out;
}

}  // namespace

JsonValue ResolutionService::Stats(const ExecContext& ctx) const {
  std::shared_lock lock(mu_);
  JsonValue out = JsonValue::MakeObject();
  out.Set("uptime_s",
          JsonValue::MakeNumber(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    start_time_)
                                    .count()));
  out.Set("records", JsonValue::MakeNumber(dataset_.size()));
  out.Set("vocabulary_terms",
          JsonValue::MakeNumber(dataset_.vocabulary().size()));
  out.Set("candidate_pairs", JsonValue::MakeNumber(PairsView().size()));
  out.Set("matched_pairs", JsonValue::MakeNumber(MatchedCountView()));
  out.Set("cliques", JsonValue::MakeNumber(ClusterMembersView().size()));
  out.Set("train_seconds", JsonValue::MakeNumber(train_seconds_));
  out.Set("incremental", JsonValue::MakeBool(state_ != nullptr));
  if (state_ != nullptr) {
    // Ingest health of the incremental engine (DESIGN.md §4g). The same
    // counters flow into the request-context MetricsRegistry, so gterd's
    // /metrics exposes them to Prometheus as ingest_* series.
    JsonValue ingest = JsonValue::MakeObject();
    ingest.Set("records_ingested",
               JsonValue::MakeNumber(state_->records_ingested()));
    ingest.Set("dirty_reiter_runs",
               JsonValue::MakeNumber(state_->dirty_reiter_runs()));
    ingest.Set("full_resweeps",
               JsonValue::MakeNumber(state_->full_resweeps()));
    ingest.Set("stall_escalations",
               JsonValue::MakeNumber(state_->stall_escalations()));
    ingest.Set("subsystem_solves",
               JsonValue::MakeNumber(state_->subsystem_solves()));
    ingest.Set("last_converge_sweeps",
               JsonValue::MakeNumber(state_->last_converge_sweeps()));
    ingest.Set("pending_dirty",
               JsonValue::MakeBool(state_->has_pending_dirty()));
    ingest.Set("state_version", JsonValue::MakeNumber(state_->version()));
    out.Set("ingest", std::move(ingest));
  }
  out.Set("records_added", JsonValue::MakeNumber(records_added_.load(
                               std::memory_order_relaxed)));
  out.Set("requests_total", JsonValue::MakeNumber(requests_total_.load(
                                std::memory_order_relaxed)));
  out.Set("requests_failed", JsonValue::MakeNumber(requests_failed_.load(
                                 std::memory_order_relaxed)));
  // Live per-method latency percentiles over the server's sliding window
  // (the same snapshots `/metrics` exposes). The server installs its
  // registry in every request context, so this resolves to the sliding
  // histograms its dispatch epilogue records into; a bare service (unit
  // tests, embedders without a server) just emits an empty object.
  MetricsRegistry* registry = ctx.metrics_or_ambient();
  JsonValue live = JsonValue::MakeObject();
  if (registry != nullptr) {
    static constexpr const char* kMethods[] = {
        "pair_score", "resolve",    "add_record", "stats",
        "debug_sleep", "debug_slow", "unknown",
    };
    for (const char* method : kMethods) {
      const std::string base = std::string("server/") + method;
      const Histogram queue = registry->SlidingSnapshot(base + "/queue_us");
      const Histogram work = registry->SlidingSnapshot(base + "/work_us");
      if (queue.count == 0 && work.count == 0) continue;
      JsonValue entry = JsonValue::MakeObject();
      entry.Set("count", JsonValue::MakeNumber(
                             static_cast<double>(work.count)));
      entry.Set("queue_us", PercentilesJson(queue));
      entry.Set("work_us", PercentilesJson(work));
      live.Set(method, std::move(entry));
    }
  }
  out.Set("live", std::move(live));
  return out;
}

}  // namespace gter
