#include "common.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>

extern char** environ;

namespace perfbench {

void RunResult::Fail(const std::string& why) {
  std::printf("# CHECK FAILED: %s\n", why.c_str());
  correct = false;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double QuantileOfMeans(const std::vector<double>& samples,
                       const std::vector<size_t>& op, double q) {
  std::map<size_t, std::vector<double>> by_op;
  for (size_t i = 0; i < samples.size() && i < op.size(); ++i) {
    by_op[op[i]].push_back(samples[i]);
  }
  std::vector<double> means;
  for (const auto& [id, times] : by_op) {
    means.push_back(Sum(times) / static_cast<double>(times.size()));
  }
  return Quantile(std::move(means), q);
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double SelfPeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ProcessPeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Report(const char* format, ...) {
  std::fputs("# ", stdout);
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fputc('\n', stdout);
}

int RunChild(const std::vector<std::string>& argv,
             const std::string& log_path) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

gter::Dataset Subset(const gter::Dataset& src,
                     const std::vector<gter::RecordId>& records) {
  gter::Dataset out(src.name(), src.num_sources());
  for (gter::RecordId r : records) {
    const gter::Record& rec = src.record(r);
    out.AddRecord(rec.source, rec.raw_text, rec.fields);
  }
  return out;
}

std::vector<gter::RecordId> SampleRecords(size_t n, size_t count,
                                          uint64_t seed) {
  std::vector<gter::RecordId> all(n);
  std::iota(all.begin(), all.end(), 0);
  gter::Rng rng(seed);
  rng.Shuffle(&all);
  all.resize(std::min(count, n));
  return all;
}

std::vector<gter::RecordId> Remaining(
    size_t n, const std::vector<gter::RecordId>& taken) {
  std::vector<bool> is_taken(n, false);
  for (gter::RecordId r : taken) is_taken[r] = true;
  std::vector<gter::RecordId> out;
  for (size_t r = 0; r < n; ++r) {
    if (!is_taken[r]) out.push_back(static_cast<gter::RecordId>(r));
  }
  return out;
}

}  // namespace perfbench
