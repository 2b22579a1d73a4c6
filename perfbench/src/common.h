// Shared pieces of the end-to-end benchmark runner: the run options, the
// result every workload fills, sample statistics, and small process and
// file helpers. Nothing here touches the gter program's internals; the
// workloads call its public headers only.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "gter/gter.h"

namespace perfbench {

/// Generator seed of every workload's corpus; --seed drives what is drawn
/// from it (held-out records, reads, traffic). The generators' output size
/// moves with their seed (Paper at scale 0.5: 112k to 130k candidate pairs)
/// and batch time and full-resweep ingest cost scale with it, so a per-seed
/// corpus would make the spread across seeds measure the generator.
inline constexpr uint64_t kCorpusSeed = 2018;

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated CSVs and child logs.
  std::string workdir;
  /// The gterd and gter_cli binaries built from the same checkout.
  std::string gterd;
  std::string gter_cli;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports. `end_to_end` is printed as the result with
/// tracing off; `per_layer` is the result of a traced run, which prints its
/// own end-to-end figures as report lines so the tracing overhead shows.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void E2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed output check: prints why and clears `correct`.
  void Fail(const std::string& why);
};

/// Monotonic seconds since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated q-quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values);
/// q-quantile over operations of each operation's mean time, where `op[i]`
/// names the operation that `samples[i]` timed. A run that repeats the same
/// operations (a replayed write stream) reports through this: each
/// operation's figure averages the host's state over all repeats, and the
/// quantile does not jump between operations of different cost when host
/// noise reorders single samples.
double QuantileOfMeans(const std::vector<double>& samples,
                         const std::vector<size_t>& op, double q);

/// Peak resident set of this process, in MiB.
double SelfPeakRssMb();
/// Peak resident set (VmHWM) of process `pid`, in MiB; 0 if unreadable.
double ProcessPeakRssMb(pid_t pid);

/// Prints one human-readable report line (stdout, prefixed "# ").
void Report(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Runs `argv` to completion with stdout and stderr sent to `log_path`;
/// returns the exit status (-1 when it could not start or was signalled).
int RunChild(const std::vector<std::string>& argv, const std::string& log_path);

/// Dataset rebuilt from `records` of `src` (raw text re-tokenized), in the
/// given order. Keeps the source count of `src`.
gter::Dataset Subset(const gter::Dataset& src,
                     const std::vector<gter::RecordId>& records);

/// Seeded sample of `count` distinct record ids out of [0, n), in sample
/// order.
std::vector<gter::RecordId> SampleRecords(size_t n, size_t count,
                                          uint64_t seed);

/// Complement of `taken` in [0, n), ascending.
std::vector<gter::RecordId> Remaining(size_t n,
                                      const std::vector<gter::RecordId>& taken);

// Workloads. Each fills `result` (end_to_end with tracing off, per_layer
// with tracing on) and returns false only when it could not run at all.
bool RunBatchWorkload(const RunOptions& options, gter::BenchmarkKind kind,
                      double scale, RunResult* result);
bool RunIngestWorkload(const RunOptions& options, RunResult* result);
bool RunServeWorkload(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
