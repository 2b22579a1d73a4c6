// perfbench_runner: runs one workload of the end-to-end benchmark and prints
// its metrics, human-readable lines first ("# ..."), then one JSON object as
// the last line of stdout: the end-to-end metrics, or with --trace 1 the
// per-layer metrics of the layers the workload runs. perfbench/run.py
// checks them against BENCHMARK.json.
//
//   perfbench_runner --workload batch-paper --seed 2018 --seconds 10
//                    --trace 0 --workdir DIR --gterd PATH --gter_cli PATH
//
// Exit codes: 0 when every output check passed, 1 when a check failed (the
// JSON still prints, with "correct": false), 2 on a usage or set-up error
// (nothing printed as a result).
#include <cmath>
#include <cstdio>

#include "common.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<batch-paper|batch-product|ingest-stream|serve-mixed> --seed N "
               "--seconds S --trace 0|1 --workdir DIR --gterd PATH "
               "--gter_cli PATH\n",
               why);
  return 2;
}

void PrintJson(const RunResult& result, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--gterd") {
      options.gterd = value;
    } else if (flag == "--gter_cli") {
      options.gter_cli = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!have_seed) return Usage("--seed must be a non-negative integer");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  if (options.workdir.empty() || options.gterd.empty() ||
      options.gter_cli.empty()) {
    return Usage("--workdir, --gterd and --gter_cli are required");
  }

  RunResult result;
  bool ran = false;
  if (options.workload == "batch-paper") {
    ran = RunBatchWorkload(options, gter::BenchmarkKind::kPaper, 0.5, &result);
  } else if (options.workload == "batch-product") {
    ran = RunBatchWorkload(options, gter::BenchmarkKind::kProduct, 1.0,
                           &result);
  } else if (options.workload == "ingest-stream") {
    ran = RunIngestWorkload(options, &result);
  } else if (options.workload == "serve-mixed") {
    ran = RunServeWorkload(options, &result);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!ran) return 2;

  // run.py checks the names against BENCHMARK.json; here every value must
  // be a finite number.
  std::vector<Metric>& printed =
      options.trace ? result.per_layer : result.end_to_end;
  for (Metric& m : printed) {
    if (!std::isfinite(m.value)) {
      result.Fail(m.name + " is not a finite number");
      m.value = 0.0;
    }
  }
  for (const Metric& m : result.end_to_end) {
    Report("%-22s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (options.trace) {
    for (const Metric& m : result.per_layer) {
      Report("layer %-30s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::fflush(stdout);
  PrintJson(result, printed);
  return result.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
