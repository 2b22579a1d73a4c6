// serve-mixed: gterd --incremental on Paper (scale 0.5), run as a child
// process at its default --threads, under an open-loop load from this
// process: resolve/pair_score reads at a fixed rate plus add_record writes
// at a low fixed rate, pipelined over a few connections from one thread.
// The load runs in segments, each against a freshly spawned daemon.
//
// Every request is timed from the moment it was due to be sent, so a stall
// also charges the requests queued behind it. An error answer, a transport
// error and a request left unanswered (the daemon exited, or the drain
// timed out) all count as failed and as missing the read limit. Running the
// daemon as its own process is what lets an abort show up as failures
// instead of ending the benchmark.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

#include "common.h"
#include "requests.h"

extern char** environ;

namespace perfbench {
namespace {

using gter::JsonValue;
using gter::RecordId;

constexpr double kScale = 0.5;
constexpr double kReadsPerSecond = 500.0;
constexpr double kWritesPerSecond = 2.0;
// The load runs in segments, each on a freshly trained daemon that takes
// the write stream from its start, so every segment samples the same
// ingests and a slow spell of the host moves one segment, not the run.
constexpr size_t kLoadSegments = 4;
// Spawns measured for set-up before each segment (the last one serves the
// segment's load) and after the last one.
constexpr size_t kSpawnsPerSegment = 3;
constexpr double kStartTimeoutS = 120.0;
constexpr double kDrainTimeoutS = 10.0;
constexpr const char* kHost = "127.0.0.1";

/// A gterd child process and the ports it bound.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  /// Spawns `argv`, waits until both ports are printed. Returns false (and
  /// leaves nothing running) on failure.
  bool Start(const std::vector<std::string>& argv, const std::string& log);
  /// SIGTERM, then SIGKILL after a grace period; always reaps the child.
  void Stop();
  /// True once the child has exited (reaps it).
  bool Exited();
  /// How the child ended, once Exited(): "exit code N" or "signal N".
  std::string HowExited() const {
    return WIFSIGNALED(exit_status_)
               ? "signal " + std::to_string(WTERMSIG(exit_status_))
               : "exit code " + std::to_string(WEXITSTATUS(exit_status_));
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }
  uint16_t metrics_port() const { return metrics_port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool reaped_ = false;
  int exit_status_ = 0;
  uint16_t port_ = 0;
  uint16_t metrics_port_ = 0;
};

bool Daemon::Start(const std::vector<std::string>& argv,
                   const std::string& log) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int spawned =
      posix_spawn(&pid_, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  out_fd_ = pipe_fds[0];
  reaped_ = false;
  if (spawned != 0) {
    pid_ = -1;
    return false;
  }
  // gterd prints "gterd listening on H:P" then "gterd metrics on
  // http://H:P/metrics" and flushes.
  std::string out;
  const double deadline = NowSeconds() + kStartTimeoutS;
  while (metrics_port_ == 0 && NowSeconds() < deadline) {
    pollfd pfd{out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) {
      if (Exited()) break;
      continue;
    }
    char buf[512];
    const ssize_t got = read(out_fd_, buf, sizeof(buf));
    if (got <= 0) break;
    out.append(buf, static_cast<size_t>(got));
    unsigned p = 0;
    if (const size_t at = out.find("listening on ");
        at != std::string::npos &&
        std::sscanf(out.c_str() + at, "listening on %*[^:]:%u", &p) == 1) {
      port_ = static_cast<uint16_t>(p);
    }
    if (const size_t at = out.find("metrics on http://");
        at != std::string::npos && out.find("/metrics", at + 18) !=
                                       std::string::npos &&
        std::sscanf(out.c_str() + at, "metrics on http://%*[^:]:%u", &p) ==
            1) {
      metrics_port_ = static_cast<uint16_t>(p);
    }
  }
  if (port_ == 0 || metrics_port_ == 0) {
    Stop();
    return false;
  }
  return true;
}

bool Daemon::Exited() {
  if (pid_ < 0 || reaped_) return true;
  if (waitpid(pid_, &exit_status_, WNOHANG) == pid_) reaped_ = true;
  return reaped_;
}

void Daemon::Stop() {
  if (pid_ >= 0 && !Exited()) {
    kill(pid_, SIGTERM);
    const double deadline = NowSeconds() + 10.0;
    while (!Exited() && NowSeconds() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!Exited()) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &exit_status_, 0);
      reaped_ = true;
    }
  }
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
  port_ = metrics_port_ = 0;
}

/// One outstanding request of the open loop.
struct Pending {
  double due = 0.0;  // scheduled send time
  bool is_write = false;
  size_t index = 0;  // into the read plan or the write list
  double sent = 0.0;  // when it was queued on the connection
};

/// A pipelined NDJSON connection driven from the load loop.
struct Connection {
  int fd = -1;
  bool alive = false;
  std::string out;  // bytes not yet sent
  std::string in;   // bytes of an incomplete answer line
  std::map<uint64_t, Pending> pending;
};

int ConnectTo(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, kHost, &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// What the open loop measured.
struct LoadOutcome {
  std::vector<double> read_ms;   // answered reads, from due time
  size_t reads_within = 0;       // answered OK within the limit
  size_t reads_sent = 0;
  std::vector<double> write_ms;  // answered writes, from due time
  std::vector<double> write_sent_ms;  // answered writes, from send time
  std::vector<size_t> write_op;  // each answered write's place in the stream
  size_t writes_sent = 0;
  uint64_t failed = 0;
  std::vector<double> late_ms;   // send time minus due time
  uint64_t new_pairs = 0, sweeps = 0;
  bool daemon_exited = false;

  void Append(const LoadOutcome& o) {
    auto extend = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    extend(&read_ms, o.read_ms);
    extend(&write_ms, o.write_ms);
    extend(&write_sent_ms, o.write_sent_ms);
    write_op.insert(write_op.end(), o.write_op.begin(), o.write_op.end());
    extend(&late_ms, o.late_ms);
    reads_within += o.reads_within;
    reads_sent += o.reads_sent;
    writes_sent += o.writes_sent;
    failed += o.failed;
    new_pairs += o.new_pairs;
    sweeps += o.sweeps;
    daemon_exited = daemon_exited || o.daemon_exited;
  }
};

/// The open loop: reads at kReadsPerSecond round-robin over connections
/// 1..C-1, writes at kWritesPerSecond on connection 0, for `seconds`, then
/// a bounded drain.
LoadOutcome RunLoad(Daemon* daemon, const gter::Dataset& dataset,
                    const std::vector<ReadRequest>& reads,
                    const std::vector<std::string>& writes, double seconds,
                    RunResult* result) {
  LoadOutcome outcome;
  const size_t num_connections = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 2, 4);
  std::vector<Connection> conns(num_connections);
  for (Connection& c : conns) {
    c.fd = ConnectTo(daemon->port());
    c.alive = c.fd >= 0;
  }
  const RecordId first_added = static_cast<RecordId>(dataset.size());
  std::vector<bool> added_seen(writes.size(), false);
  uint64_t next_id = 0;

  auto fail_pending = [&](Connection* c) {
    outcome.failed += c->pending.size();
    c->pending.clear();
    c->alive = false;
  };
  auto answer = [&](Connection* c, const std::string& line, double now) {
    auto frame = JsonValue::Parse(line);
    if (!frame.ok() || frame.value().Find("id") == nullptr) {
      result->Fail("unparseable answer: " + line.substr(0, 200));
      return;
    }
    const uint64_t id =
        static_cast<uint64_t>(frame.value().NumberOr("id", -1.0));
    auto it = c->pending.find(id);
    if (it == c->pending.end()) {
      result->Fail("answer to an unknown request id");
      return;
    }
    const Pending p = it->second;
    c->pending.erase(it);
    const double ms = (now - p.due) * 1e3;
    const JsonValue* ok = frame.value().Find("ok");
    const bool good = ok != nullptr && ok->is_bool() && ok->boolean();
    const JsonValue* body = frame.value().Find("result");
    if (!good || body == nullptr) ++outcome.failed;
    if (p.is_write) {
      outcome.write_ms.push_back(ms);
      outcome.write_sent_ms.push_back((now - p.sent) * 1e3);
      outcome.write_op.push_back(p.index);
      if (!good || body == nullptr) return;
      const double record = body->NumberOr("record", -1.0);
      const double slot = record - first_added;
      if (slot < 0 || slot >= static_cast<double>(writes.size()) ||
          added_seen[static_cast<size_t>(slot)]) {
        result->Fail("add_record answered an unexpected record id");
        return;
      }
      added_seen[static_cast<size_t>(slot)] = true;
      outcome.new_pairs += static_cast<uint64_t>(body->NumberOr("new_pairs", 0));
      outcome.sweeps += static_cast<uint64_t>(body->NumberOr("sweeps", 0));
      return;
    }
    outcome.read_ms.push_back(ms);
    if (!good || body == nullptr) return;
    outcome.reads_within += ms <= kReadLimitMs;
    const std::string problem = CheckReadAnswer(reads[p.index], *body);
    if (!problem.empty()) result->Fail(problem);
  };
  auto send = [&](Connection* c, const Pending& p, const std::string& method,
                  JsonValue params, double now) {
    outcome.late_ms.push_back((now - p.due) * 1e3);
    if (!c->alive) {
      ++outcome.failed;  // transport error: the connection is gone
      return;
    }
    const uint64_t id = next_id++;
    JsonValue frame = JsonValue::MakeObject();
    frame.Set("id", JsonValue::MakeNumber(static_cast<double>(id)));
    frame.Set("method", JsonValue::MakeString(method));
    frame.Set("params", std::move(params));
    c->out += frame.Serialize();
    c->out.push_back('\n');
    Pending queued = p;
    queued.sent = now;
    c->pending.emplace(id, queued);
  };

  const double start = NowSeconds();
  const double end = start + seconds;
  const double read_gap = 1.0 / kReadsPerSecond;
  const double write_gap = 1.0 / kWritesPerSecond;
  size_t next_read = 0, next_write = 0, read_conn = 0;
  double drain_deadline = 0.0;
  while (true) {
    double now = NowSeconds();
    for (double due = start + static_cast<double>(next_read) * read_gap;
         due <= now && due < end && next_read < reads.size();
         due = start + static_cast<double>(next_read) * read_gap) {
      const ReadRequest& read = reads[next_read];
      Connection* c = &conns[1 + read_conn++ % (conns.size() - 1)];
      send(c, {due, false, next_read, 0.0}, ReadMethod(read),
           ReadParams(read, dataset), now);
      ++outcome.reads_sent;
      ++next_read;
    }
    for (double due = start + (static_cast<double>(next_write) + 0.5) *
                                  write_gap;
         due <= now && due < end && next_write < writes.size();
         due = start + (static_cast<double>(next_write) + 0.5) * write_gap) {
      send(&conns[0], {due, true, next_write, 0.0}, "add_record",
           WriteParams(0, writes[next_write]), now);
      ++outcome.writes_sent;
      ++next_write;
    }
    const double next_read_due =
        start + static_cast<double>(next_read) * read_gap;
    const double next_write_due =
        start + (static_cast<double>(next_write) + 0.5) * write_gap;
    const bool sending = std::min(next_read_due, next_write_due) < end &&
                         (next_read < reads.size() ||
                          next_write < writes.size());
    size_t outstanding = 0;
    for (const Connection& c : conns) outstanding += c.pending.size();
    if (!sending) {
      if (drain_deadline == 0.0) drain_deadline = now + kDrainTimeoutS;
      if (outstanding == 0 || now >= drain_deadline) break;
    }
    if (!outcome.daemon_exited && daemon->Exited()) {
      outcome.daemon_exited = true;
      Report("serve-mixed: gterd exited during the load (%s)",
             daemon->HowExited().c_str());
    }

    std::vector<pollfd> pfds;
    for (Connection& c : conns) {
      short events = 0;
      if (c.alive) events = POLLIN | (c.out.empty() ? 0 : POLLOUT);
      pfds.push_back({c.alive ? c.fd : -1, events, 0});
    }
    double wake = sending ? std::min(next_read_due, next_write_due)
                          : drain_deadline;
    wake = std::min(wake, now + 0.05);  // keep watching the child
    const auto wait_ns =
        static_cast<long long>(std::max(0.0, wake - now) * 1e9);
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    now = NowSeconds();
    for (size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      if (!c.alive) continue;
      if (pfds[i].revents & POLLOUT) {
        const ssize_t sent =
            ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (sent > 0) {
          c.out.erase(0, static_cast<size_t>(sent));
        } else if (sent < 0 && errno != EAGAIN && errno != EINTR) {
          fail_pending(&c);
          continue;
        }
      }
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[1 << 16];
        const ssize_t got = recv(c.fd, buf, sizeof(buf), 0);
        if (got <= 0) {
          if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
            fail_pending(&c);
          }
          continue;
        }
        c.in.append(buf, static_cast<size_t>(got));
        size_t line_end;
        while ((line_end = c.in.find('\n')) != std::string::npos) {
          answer(&c, c.in.substr(0, line_end), now);
          c.in.erase(0, line_end + 1);
        }
      }
    }
  }
  // Whatever is still outstanding was never answered.
  for (Connection& c : conns) {
    outcome.failed += c.pending.size();
    if (c.fd >= 0) close(c.fd);
  }
  return outcome;
}

/// Sum of histograms scraped from several daemons, on their shared
/// power-of-two bucket grid.
gter::PromParsedHistogram MergeHistograms(const std::vector<std::string>& texts,
                                          const std::vector<std::string>& names) {
  std::map<double, uint64_t> per_bucket;
  gter::PromParsedHistogram merged;
  for (const std::string& text : texts) {
    for (const std::string& name : names) {
      gter::PromParsedHistogram h;
      if (!gter::FindPromHistogram(text, name, &h)) continue;
      uint64_t previous = 0;
      for (const auto& [bound, cumulative] : h.cumulative) {
        per_bucket[bound] += cumulative - previous;
        previous = cumulative;
      }
      merged.sum += h.sum;
      merged.count += h.count;
    }
  }
  uint64_t running = 0;
  for (const auto& [bound, count] : per_bucket) {
    running += count;
    merged.cumulative.emplace_back(bound, running);
  }
  return merged;
}

/// Value of an unlabelled sample `name` in exposition text; 0 if absent.
double PromValue(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = text.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

IngestLayer::Sample ReadIngestSample(const std::string& text) {
  IngestLayer::Sample s;
  s.ingest_s = PromValue(text, "gter_resolver_state_ingest_seconds_total");
  s.ingests = static_cast<uint64_t>(
      PromValue(text, "gter_resolver_state_ingest_count"));
  s.reiter_s = PromValue(text, "gter_iter_dirty_seconds_total");
  s.refresh_s =
      PromValue(text, "gter_resolver_state_refresh_decisions_seconds_total");
  s.full_resweeps =
      static_cast<uint64_t>(PromValue(text, "gter_ingest_full_resweeps"));
  s.subsystem_solves =
      static_cast<uint64_t>(PromValue(text, "gter_iter_subsystem_solves"));
  s.stall_escalations =
      static_cast<uint64_t>(PromValue(text, "gter_iter_stall_escalations"));
  return s;
}

/// Pairwise clustering F1 of what the daemon serves: each record's own
/// text is resolved once and the answered clique taken as its entity.
double ServedF1(uint16_t port, const gter::Dataset& dataset,
                const gter::GroundTruth& truth, RunResult* result) {
  auto client = gter::GterdClient::Connect(kHost, port);
  if (!client.ok()) {
    result->Fail("cannot connect for the F1 read-back");
    return 0.0;
  }
  const uint32_t unset = static_cast<uint32_t>(-1);
  std::vector<uint32_t> label(dataset.size(), unset);
  uint32_t next_label = 0;
  for (RecordId r = 0; r < dataset.size(); ++r) {
    if (label[r] != unset) continue;
    JsonValue params = JsonValue::MakeObject();
    params.Set("text", JsonValue::MakeString(dataset.record(r).raw_text));
    auto answer = client.value().Call("resolve", std::move(params));
    if (!answer.ok()) {
      result->Fail("F1 read-back failed: " + answer.status().ToString());
      return 0.0;
    }
    const JsonValue* clique = answer.value().Find("clique");
    bool has_self = false;
    if (clique != nullptr && clique->is_array()) {
      for (const JsonValue& m : clique->array()) {
        has_self = has_self || (m.is_number() && m.number() == r);
      }
    }
    const uint32_t mine = next_label++;
    label[r] = mine;
    if (!has_self) continue;  // r's own cluster was not served: singleton
    for (const JsonValue& m : clique->array()) {
      const double id = m.number();
      if (id < static_cast<double>(dataset.size()) &&
          label[static_cast<size_t>(id)] == unset) {
        label[static_cast<size_t>(id)] = mine;
      }
    }
  }
  return gter::EvaluateClustering(label, truth).pairwise_f1;
}

}  // namespace

bool RunServeWorkload(const RunOptions& options, RunResult* result) {
  gter::GeneratedDataset generated =
      gter::GenerateBenchmark(gter::BenchmarkKind::kPaper, kScale, kCorpusSeed);
  const std::string csv = options.workdir + "/serve-mixed.csv";
  if (gter::Status s =
          gter::SaveDatasetCsv(csv, generated.dataset, generated.truth);
      !s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", csv.c_str(),
                 s.ToString().c_str());
    return false;
  }
  // The daemon's view of the data, rebuilt here the same way, names the
  // candidate pairs that pair_score reads ask about.
  auto loaded = gter::LoadDatasetCsv(csv, "input", 1);
  if (!loaded.ok()) return false;
  auto [dataset, truth] = std::move(loaded).value();
  gter::RemoveFrequentTerms(&dataset);
  const gter::PairSpace pairs = gter::PairSpace::Build(dataset);
  const double segment_s = options.seconds / kLoadSegments;
  const size_t segment_reads =
      static_cast<size_t>(segment_s * kReadsPerSecond) + 1;
  const std::vector<ReadRequest> all_reads = MakeReads(
      pairs, dataset.size(), segment_reads * kLoadSegments, options.seed);
  // Writes are a fixed stream of records of entities the daemon has not
  // seen (another generator seed); the reads come from --seed.
  const gter::GeneratedDataset extra = gter::GenerateBenchmark(
      gter::BenchmarkKind::kPaper, 0.2, kCorpusSeed + 1);
  std::vector<std::string> writes;
  for (const gter::Record& r : extra.dataset.records()) {
    writes.push_back(r.raw_text);
  }

  const std::vector<std::string> argv = {
      options.gterd, "--in=" + csv, "--port=0", "--metrics_port=0",
      "--incremental"};
  const std::string log = csv + ".gterd.log";
  // Set-up is measured on spawns before, between and after the load
  // segments, so its median spans the run. Each spawn trains from scratch
  // and reports its own build time. The served F1 is read back from the
  // first spawn, before any load: the records the load adds would make it
  // depend on the write stream.
  std::vector<double> setup_s, train_s;
  double f1 = 0.0, served_pairs = 0.0;
  Daemon daemon;
  auto spawn = [&]() {
    daemon.Stop();
    const double start = NowSeconds();
    if (!daemon.Start(argv, log)) {
      std::fprintf(stderr, "gterd did not start; see %s\n", log.c_str());
      return false;
    }
    setup_s.push_back(NowSeconds() - start);
    auto client = gter::GterdClient::Connect(kHost, daemon.port());
    auto stats = client.ok() ? client.value().Call("stats",
                                                   JsonValue::MakeObject())
                             : gter::Result<JsonValue>(client.status());
    if (!stats.ok()) {
      std::fprintf(stderr, "gterd stats failed: %s\n",
                   stats.status().ToString().c_str());
      return false;
    }
    train_s.push_back(stats.value().NumberOr("train_seconds", 0.0));
    served_pairs = stats.value().NumberOr("candidate_pairs", 0.0);
    return true;
  };
  auto scrape = [&]() -> std::string {
    auto body = gter::GterdClient::HttpGet(kHost, daemon.metrics_port(),
                                           "/metrics");
    return body.ok() ? "\n" + body.value() : std::string();
  };
  LoadOutcome load;
  IngestLayer layer;
  std::vector<std::string> scraped;  // each segment's daemon, after its load
  std::vector<double> peak_mb;
  for (size_t segment = 0; segment < kLoadSegments; ++segment) {
    for (size_t i = 0; i < kSpawnsPerSegment; ++i) {
      if (!spawn()) return false;
      if (segment == 0 && i == 0) {
        f1 = ServedF1(daemon.port(), dataset, truth, result);
      }
    }
    const std::string before = scrape();
    const auto first = all_reads.begin() +
                       static_cast<std::ptrdiff_t>(segment * segment_reads);
    const LoadOutcome part =
        RunLoad(&daemon, dataset, {first, first + segment_reads}, writes,
                segment_s, result);
    load.Append(part);
    if (part.daemon_exited) continue;
    peak_mb.push_back(ProcessPeakRssMb(daemon.pid()));
    const std::string after = scrape();
    if (before.empty() || after.empty()) continue;
    layer.AddDelta(ReadIngestSample(before), ReadIngestSample(after));
    scraped.push_back(after);
  }
  for (size_t i = 0; i < kSpawnsPerSegment; ++i) {
    if (!spawn()) return false;
  }
  daemon.Stop();
  result->attempted += load.reads_sent + load.writes_sent;
  result->failed += load.failed;

  Report("serve-mixed: sent %zu reads and %zu writes, %zu reads and %zu "
         "writes answered, %llu failed",
         load.reads_sent, load.writes_sent, load.read_ms.size(),
         load.write_ms.size(), static_cast<unsigned long long>(load.failed));

  result->E2e("setup_s", Median(setup_s), "s");
  result->E2e("batch_s", Median(train_s), "s");
  result->E2e("f1", f1, "ratio");
  result->E2e("peak_rss_mb", Median(peak_mb), "MB");
  // add_record from the moment it was sent (queue and lock wait included,
  // generator lateness excluded); the rate is ingests per second of the
  // daemon's own ResolverState::Ingest time.
  result->E2e("ingest_p50_ms",
              QuantileOfMeans(load.write_sent_ms, load.write_op, 0.50), "ms");
  result->E2e("ingest_p95_ms",
              QuantileOfMeans(load.write_sent_ms, load.write_op, 0.95), "ms");
  result->E2e("ingest_per_s",
              layer.ingest_s > 0.0
                  ? static_cast<double>(layer.ingests) / layer.ingest_s
                  : 0.0,
              "1/s");
  result->E2e("read_p50_ms", Quantile(load.read_ms, 0.50), "ms");
  result->E2e("read_p99_ms", Quantile(load.read_ms, 0.99), "ms");
  result->E2e("read_within_limit",
              load.reads_sent > 0 ? static_cast<double>(load.reads_within) /
                                        static_cast<double>(load.reads_sent)
                                  : 0.0,
              "ratio");
  result->E2e("write_p50_ms",
              QuantileOfMeans(load.write_ms, load.write_op, 0.50), "ms");

  if (options.trace) {
    auto family = [](const std::string& method, const char* kind) {
      return "gter_server_" + method + "_" + kind + "_us";
    };
    const auto read_queue = MergeHistograms(
        scraped, {family("resolve", "queue"), family("pair_score", "queue")});
    const auto read_work = MergeHistograms(
        scraped, {family("resolve", "work"), family("pair_score", "work")});
    const auto write_queue =
        MergeHistograms(scraped, {family("add_record", "queue")});
    const auto write_work =
        MergeHistograms(scraped, {family("add_record", "work")});
    result->Layer("er.candidate_pairs", served_pairs, "count");
    result->Layer("server.read_queue_us_p99",
                  gter::PromHistogramQuantile(read_queue, 0.99), "us");
    result->Layer("server.read_work_us_p99",
                  gter::PromHistogramQuantile(read_work, 0.99), "us");
    result->Layer("server.write_queue_us_p50",
                  gter::PromHistogramQuantile(write_queue, 0.50), "us");
    result->Layer("server.write_work_us_p50",
                  gter::PromHistogramQuantile(write_work, 0.50), "us");
    result->Layer("loadgen.sent",
                  static_cast<double>(load.reads_sent + load.writes_sent),
                  "count");
    result->Layer("loadgen.failed", static_cast<double>(load.failed), "count");
    result->Layer("loadgen.late_ms_p99", Quantile(load.late_ms, 0.99), "ms");
    layer.new_pairs = load.new_pairs;
    layer.sweeps = load.sweeps;
    layer.Emit(result, kLoadSegments);
  }
  return true;
}

}  // namespace perfbench
