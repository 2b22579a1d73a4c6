#include "requests.h"

#include <algorithm>

namespace perfbench {

using gter::JsonValue;
using gter::RecordId;

ReadRequest DrawRead(gter::Rng* rng, const gter::PairSpace& pairs,
                     size_t num_records, size_t index) {
  ReadRequest read;
  read.is_resolve = index % 4 != 3 || pairs.size() == 0;
  if (read.is_resolve) {
    read.record = static_cast<RecordId>(rng->NextBounded(num_records));
  } else {
    const gter::RecordPair& pair = pairs.pair(rng->NextBounded(pairs.size()));
    read.a = pair.a;
    read.b = pair.b;
  }
  return read;
}

std::vector<ReadRequest> MakeReads(const gter::PairSpace& pairs,
                                   size_t num_records, size_t count,
                                   uint64_t seed) {
  gter::Rng rng(seed);
  std::vector<ReadRequest> reads;
  for (size_t i = 0; i < count; ++i) {
    reads.push_back(DrawRead(&rng, pairs, num_records, i));
  }
  return reads;
}

std::string ReadMethod(const ReadRequest& read) {
  return read.is_resolve ? "resolve" : "pair_score";
}

JsonValue ReadParams(const ReadRequest& read, const gter::Dataset& dataset) {
  JsonValue params = JsonValue::MakeObject();
  if (read.is_resolve) {
    params.Set("text",
               JsonValue::MakeString(dataset.record(read.record).raw_text));
  } else {
    params.Set("a", JsonValue::MakeNumber(read.a));
    params.Set("b", JsonValue::MakeNumber(read.b));
  }
  return params;
}

JsonValue WriteParams(uint32_t source, const std::string& text) {
  JsonValue params = JsonValue::MakeObject();
  params.Set("source", JsonValue::MakeNumber(source));
  params.Set("text", JsonValue::MakeString(text));
  return params;
}

std::string CheckReadAnswer(const ReadRequest& read, const JsonValue& result) {
  if (!read.is_resolve) {
    const JsonValue* a = result.Find("a");
    const JsonValue* b = result.Find("b");
    const JsonValue* match = result.Find("match");
    if (a == nullptr || b == nullptr || match == nullptr || !a->is_number() ||
        !b->is_number() || !match->is_bool() || a->number() != read.a ||
        b->number() != read.b) {
      return "pair_score answer does not echo its pair: " + result.Serialize();
    }
    return "";
  }
  // The query is a stored record's own text, so a best match must exist
  // and the served clique must contain it.
  const JsonValue* best = result.Find("best");
  const JsonValue* clique = result.Find("clique");
  if (best == nullptr || !best->is_object() || clique == nullptr ||
      !clique->is_array()) {
    return "resolve found no match for a stored record's text";
  }
  const double best_record = best->NumberOr("record", -1.0);
  const auto& members = clique->array();
  const bool in_clique =
      std::any_of(members.begin(), members.end(), [&](const JsonValue& m) {
        return m.is_number() && m.number() == best_record;
      });
  if (!in_clique) return "resolve clique misses its best record";
  return "";
}

IngestLayer::Sample IngestLayer::Read(const gter::MetricsRegistry& registry) {
  Sample s;
  s.ingest_s = registry.Timer("resolver_state/ingest").seconds;
  s.ingests = registry.Timer("resolver_state/ingest").count;
  s.reiter_s = registry.Timer("iter/dirty").seconds;
  s.refresh_s = registry.Timer("resolver_state/refresh_decisions").seconds;
  s.full_resweeps = registry.Counter("ingest/full_resweeps");
  s.subsystem_solves = registry.Counter("iter/subsystem_solves");
  s.stall_escalations = registry.Counter("iter/stall_escalations");
  return s;
}

void IngestLayer::AddDelta(const Sample& before, const Sample& after) {
  ingests += after.ingests - before.ingests;
  ingest_s += after.ingest_s - before.ingest_s;
  reiter_s += after.reiter_s - before.reiter_s;
  refresh_s += after.refresh_s - before.refresh_s;
  full_resweeps += after.full_resweeps - before.full_resweeps;
  subsystem_solves += after.subsystem_solves - before.subsystem_solves;
  stall_escalations += after.stall_escalations - before.stall_escalations;
}

void IngestLayer::Emit(RunResult* result, uint64_t replays) const {
  const double per = ingests > 0 ? 1e3 / static_cast<double>(ingests) : 0.0;
  auto count = [replays](uint64_t total) {
    return static_cast<double>(total / std::max<uint64_t>(replays, 1));
  };
  result->Layer("core.ingest_reiter_ms", reiter_s * per, "ms");
  result->Layer("core.ingest_refresh_ms", refresh_s * per, "ms");
  result->Layer("core.ingest_structural_ms",
                std::max(0.0, ingest_s - reiter_s - refresh_s) * per, "ms");
  result->Layer("core.ingest_new_pairs", count(new_pairs), "count");
  result->Layer("core.ingest_sweeps", count(sweeps), "count");
  result->Layer("core.ingest_full_resweeps", count(full_resweeps), "count");
  result->Layer("core.ingest_subsystem_solves", count(subsystem_solves),
                "count");
  result->Layer("core.ingest_stall_escalations", count(stall_escalations),
                "count");
}

ServiceSession::ServiceSession(const gter::Dataset& dataset,
                               const std::vector<RecordId>& head,
                               std::vector<RecordId> tail, uint64_t seed,
                               bool traced, RunResult* result)
    : dataset_(dataset),
      tail_(std::move(tail)),
      served_(Subset(dataset, head)),
      rng_(seed),
      result_(result) {
  gter::RemoveFrequentTerms(&served_);
  pairs_ = gter::PairSpace::Build(served_);
  if (traced) ctx_.metrics = &registry_;
  Restart();
}

void ServiceSession::Restart() {
  service_.reset();
  next_write_ = 0;
  gter::ResolutionServiceOptions options;
  options.incremental = true;
  auto service = gter::ResolutionService::Create(served_, options, ctx_);
  if (!service.ok()) {
    result_->Fail("service build failed: " + service.status().ToString());
    return;
  }
  service_ = std::move(service).value();
}

gter::Result<JsonValue> ServiceSession::Call(std::string method,
                                             JsonValue params, double* ms) {
  gter::GterdRequest request;
  request.id = JsonValue::MakeNumber(static_cast<double>(++request_id_));
  request.method = std::move(method);
  request.params = std::move(params);
  const double start = NowSeconds();
  gter::Result<JsonValue> answer = service_->Handle(request, ctx_);
  *ms = (NowSeconds() - start) * 1e3;
  ++phase_.attempted;
  if (!answer.ok()) ++phase_.failed;
  return answer;
}

void ServiceSession::Step(size_t reads, size_t writes) {
  if (service_ == nullptr) return;
  for (size_t i = 0; i < reads; ++i) {
    const ReadRequest read =
        DrawRead(&rng_, pairs_, served_.size(), reads_drawn_++);
    double ms = 0.0;
    auto answer = Call(ReadMethod(read), ReadParams(read, served_), &ms);
    phase_.read_ms.push_back(ms);
    if (!answer.ok()) continue;
    phase_.reads_within += ms <= kReadLimitMs;
    const std::string problem = CheckReadAnswer(read, answer.value());
    if (!problem.empty()) result_->Fail(problem);
  }
  if (reads > 0) {
    phase_.read_p99_by_step.push_back(
        Quantile({phase_.read_ms.end() - static_cast<std::ptrdiff_t>(reads),
                  phase_.read_ms.end()},
                 0.99));
  }
  for (size_t i = 0; i < writes && next_write_ < tail_.size(); ++i) {
    const gter::Record& added = dataset_.record(tail_[next_write_]);
    const RecordId expected =
        static_cast<RecordId>(served_.size() + next_write_);
    phase_.write_op.push_back(next_write_++);
    const IngestLayer::Sample before = IngestLayer::Read(registry_);
    double ms = 0.0;
    auto answer =
        Call("add_record", WriteParams(added.source, added.raw_text), &ms);
    phase_.write_ms.push_back(ms);
    phase_.layer.AddDelta(before, IngestLayer::Read(registry_));
    if (!answer.ok()) continue;
    if (answer.value().NumberOr("record", -1.0) != expected) {
      result_->Fail("add_record answered " + answer.value().Serialize() +
                    ", expected record " + std::to_string(expected));
    }
    phase_.layer.new_pairs +=
        static_cast<uint64_t>(answer.value().NumberOr("new_pairs", 0.0));
    phase_.layer.sweeps +=
        static_cast<uint64_t>(answer.value().NumberOr("sweeps", 0.0));
  }
}

void EmitServiceMetrics(const ServicePhase& phase, RunResult* result) {
  result->E2e("read_p50_ms", Quantile(phase.read_ms, 0.50), "ms");
  result->E2e("read_p99_ms", Median(phase.read_p99_by_step), "ms");
  // A failed read was timed too but counts as missing the limit.
  result->E2e("read_within_limit",
              phase.read_ms.empty()
                  ? 0.0
                  : static_cast<double>(phase.reads_within) /
                        static_cast<double>(phase.read_ms.size()),
              "ratio");
  result->E2e("write_p50_ms",
              QuantileOfMeans(phase.write_ms, phase.write_op, 0.50), "ms");
}

}  // namespace perfbench
