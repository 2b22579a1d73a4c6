// Request construction and answer checks shared by the in-process service
// phase and the gterd load generator, plus the ingest-layer ledger both
// fill from the program's own timers and counters.
#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// A read the benchmark sends: resolve(text of `record`) or
/// pair_score(a, b) over a candidate pair.
struct ReadRequest {
  bool is_resolve = true;
  gter::RecordId record = 0;  // resolve: whose text is the query
  gter::RecordId a = 0, b = 0;  // pair_score
};

/// Read number `index` of a seeded mix: three resolves to one pair_score,
/// the record and the candidate pair drawn uniformly from `rng`. The uneven
/// mix keeps the median inside the resolve latencies instead of in the gap
/// between the two methods.
ReadRequest DrawRead(gter::Rng* rng, const gter::PairSpace& pairs,
                     size_t num_records, size_t index);
/// The first `count` reads of the mix seeded with `seed`.
std::vector<ReadRequest> MakeReads(const gter::PairSpace& pairs,
                                   size_t num_records, size_t count,
                                   uint64_t seed);

/// The request's method and params.
std::string ReadMethod(const ReadRequest& read);
gter::JsonValue ReadParams(const ReadRequest& read,
                           const gter::Dataset& dataset);
gter::JsonValue WriteParams(uint32_t source, const std::string& text);

/// Checks an OK read answer; returns an empty string or the mismatch.
std::string CheckReadAnswer(const ReadRequest& read,
                            const gter::JsonValue& result);

/// Ingest-layer ledger: totals over a stream of ingests, emitted as
/// per-ingest mean times and work counts per replay of the stream.
struct IngestLayer {
  uint64_t ingests = 0;
  double ingest_s = 0.0;   // resolver_state/ingest
  double reiter_s = 0.0;   // iter/dirty
  double refresh_s = 0.0;  // resolver_state/refresh_decisions
  uint64_t new_pairs = 0;
  uint64_t sweeps = 0;
  uint64_t full_resweeps = 0;
  uint64_t subsystem_solves = 0;
  uint64_t stall_escalations = 0;

  /// Program counters and timers at one instant.
  struct Sample {
    double ingest_s = 0.0, reiter_s = 0.0, refresh_s = 0.0;
    uint64_t ingests = 0, full_resweeps = 0, subsystem_solves = 0,
             stall_escalations = 0;
  };
  static Sample Read(const gter::MetricsRegistry& registry);
  /// Adds the program-side difference between two samples.
  void AddDelta(const Sample& before, const Sample& after);
  void AddStats(const gter::IngestStats& stats) {
    new_pairs += stats.new_pairs;
    sweeps += stats.sweeps;
  }
  /// `replays`: how often the same stream was replayed from the same
  /// start; counts are emitted per replay, so they do not grow with time.
  void Emit(RunResult* result, uint64_t replays = 1) const;
};

/// What the in-process service session measured so far.
struct ServicePhase {
  std::vector<double> read_ms;
  /// p99 of each Step's reads. Their median is the reported p99: a burst of
  /// host noise then moves one step's tail, not the run's.
  std::vector<double> read_p99_by_step;
  /// Reads answered OK within kReadLimitMs.
  size_t reads_within = 0;
  std::vector<double> write_ms;
  /// Position in the tail of the record each write_ms sample added.
  std::vector<size_t> write_op;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  IngestLayer layer;
};

/// An incremental ResolutionService over `head` (preprocessed the way gterd
/// does it), driven in process by one closed-loop caller. Each call is
/// timed around ResolutionService::Handle. Writes add the `tail` records in
/// order, one add_record each; Restart() serves `head` afresh, so the tail
/// can be added again. With `traced`, a registry rides the request
/// context and fills the phase's ingest ledger from the program's timers.
/// Answer mismatches go to `result`.
class ServiceSession {
 public:
  ServiceSession(const gter::Dataset& dataset,
                 const std::vector<gter::RecordId>& head,
                 std::vector<gter::RecordId> tail, uint64_t seed, bool traced,
                 RunResult* result);
  ServiceSession(const ServiceSession&) = delete;
  ServiceSession& operator=(const ServiceSession&) = delete;

  /// `reads` seeded reads, then the next `writes` tail records (fewer once
  /// the tail is used up). A no-op when the service could not be built.
  void Step(size_t reads, size_t writes);
  /// Rebuilds the service over `head` alone. The phase keeps what was
  /// measured so far; the reads go on with the seeded mix.
  void Restart();
  const ServicePhase& phase() const { return phase_; }

 private:
  gter::Result<gter::JsonValue> Call(std::string method,
                                     gter::JsonValue params, double* ms);

  const gter::Dataset& dataset_;
  std::vector<gter::RecordId> tail_;
  size_t next_write_ = 0;
  /// The served dataset as built, for read texts; ids are positions in
  /// `head`.
  gter::Dataset served_;
  gter::PairSpace pairs_;
  gter::Rng rng_;
  size_t reads_drawn_ = 0;
  gter::MetricsRegistry registry_;
  gter::ExecContext ctx_;
  std::unique_ptr<gter::ResolutionService> service_;
  uint64_t request_id_ = 0;
  RunResult* result_;
  ServicePhase phase_;
};

/// Emits the read/write end-to-end metrics of an in-process service session.
void EmitServiceMetrics(const ServicePhase& phase, RunResult* result);

/// Reads answered within this bound count toward read_within_limit.
inline constexpr double kReadLimitMs = 10.0;

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
