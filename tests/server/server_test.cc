// gterd end-to-end tests: real sockets against an ephemeral-port server.
//
// These cover the network layer's contract — framing, error mapping,
// deadlines, disconnect cancellation, concurrency — not resolution
// quality, which has its own suites.

#include "gter/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gter/common/prom.h"
#include "gter/common/thread_pool.h"
#include "gter/core/clusterer.h"
#include "gter/datagen/datagen.h"
#include "gter/er/preprocess.h"
#include "gter/server/client.h"

namespace gter {
namespace {

using std::chrono::steady_clock;

double SecondsSince(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

/// A tiny five-record dataset (two duplicate pairs and a singleton), the
/// trained service, and a listening server on an ephemeral loopback port.
struct ServerFixture {
  std::unique_ptr<ResolutionService> service;
  std::unique_ptr<GterdServer> server;

  explicit ServerFixture(GterdServerOptions options = {},
                         ResolutionServiceOptions service_options = {}) {
    Dataset dataset("server-test");
    dataset.AddRecord(0, "golden dragon szechuan pasadena 8185551234");
    dataset.AddRecord(0, "golden dragon szechuan pasadena 8185551234");
    dataset.AddRecord(0, "blue lagoon seafood grill marina 3105559876");
    dataset.AddRecord(0, "blue lagoon seafood grill marina 3105559876");
    dataset.AddRecord(0, "taco fiesta cantina downtown 2135550000");
    auto built = ResolutionService::Create(std::move(dataset),
                                           std::move(service_options));
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    service = std::move(built).value();
    auto started = GterdServer::Start(service.get(), options);
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(started).value();
  }

  GterdClient Connect() {
    auto client = GterdClient::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }
};

TEST(GterdServerTest, StatsReflectsTrainedModel) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  auto stats = client.Call("stats", JsonValue::MakeObject());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().NumberOr("records", -1), 5.0);
  EXPECT_GT(stats.value().NumberOr("candidate_pairs", -1), 0.0);
  EXPECT_GE(stats.value().NumberOr("requests_total", -1), 1.0);
}

TEST(GterdServerTest, PairScoreServesModelValuesForCandidatePairs) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  JsonValue params = JsonValue::MakeObject();
  params.Set("a", JsonValue::MakeNumber(0));
  params.Set("b", JsonValue::MakeNumber(1));
  auto r = client.Call("pair_score", std::move(params));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Records 0 and 1 are identical: they share terms, so they are in the
  // candidate space with a positive score.
  EXPECT_TRUE(r.value().Find("in_candidate_space")->boolean());
  EXPECT_GT(r.value().NumberOr("score", -1), 0.0);
}

TEST(GterdServerTest, PairScoreOutOfRangeId) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  JsonValue params = JsonValue::MakeObject();
  params.Set("a", JsonValue::MakeNumber(0));
  params.Set("b", JsonValue::MakeNumber(999));
  auto r = client.Call("pair_score", std::move(params));
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(GterdServerTest, UnknownMethodIsNotFound) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  auto r = client.Call("frobnicate", JsonValue::MakeObject());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(GterdServerTest, MissingParamsAreInvalidArgument) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  EXPECT_EQ(client.Call("pair_score", JsonValue::MakeObject()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Call("resolve", JsonValue::MakeObject()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GterdServerTest, ResolveFindsTheMatchingRecord) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  JsonValue params = JsonValue::MakeObject();
  params.Set("text", JsonValue::MakeString("golden dragon pasadena"));
  auto r = client.Call("resolve", std::move(params));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const JsonValue* best = r.value().Find("best");
  ASSERT_NE(best, nullptr);
  ASSERT_FALSE(best->is_null());
  const double record = best->NumberOr("record", -1);
  EXPECT_TRUE(record == 0.0 || record == 1.0);
  // The clique always contains the best match itself.
  const JsonValue* clique = r.value().Find("clique");
  ASSERT_NE(clique, nullptr);
  bool found = false;
  for (const JsonValue& member : clique->array()) {
    if (member.number() == record) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(GterdServerTest, ResolveSucceedsWithEveryRegisteredClusterer) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  for (ClustererKind kind : AllClustererKinds()) {
    SCOPED_TRACE(ClustererKindName(kind));
    JsonValue params = JsonValue::MakeObject();
    params.Set("text", JsonValue::MakeString("golden dragon pasadena"));
    params.Set("clusterer", JsonValue::MakeString(ClustererKindName(kind)));
    auto r = client.Call("resolve", std::move(params));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The response names the endgame that produced its clique.
    const JsonValue* used = r.value().Find("clusterer");
    ASSERT_NE(used, nullptr);
    EXPECT_EQ(used->string(), ClustererKindName(kind));
    const JsonValue* best = r.value().Find("best");
    ASSERT_NE(best, nullptr);
    ASSERT_FALSE(best->is_null());
    const double record = best->NumberOr("record", -1);
    // The fresh partition's clique contains the best match itself.
    const JsonValue* clique = r.value().Find("clique");
    ASSERT_NE(clique, nullptr);
    bool found = false;
    for (const JsonValue& member : clique->array()) {
      if (member.number() == record) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST(GterdServerTest, UnknownClustererIsInvalidArgumentAndKeepsConnection) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  JsonValue params = JsonValue::MakeObject();
  params.Set("text", JsonValue::MakeString("golden dragon pasadena"));
  params.Set("clusterer", JsonValue::MakeString("kmeans"));
  auto r = client.Call("resolve", std::move(params));
  // Answered ok:false with InvalidArgument — not dropped.
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The connection survives and keeps serving.
  auto stats = client.Call("stats", JsonValue::MakeObject());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST(GterdServerTest, DeadlineFiresInsideASlowHierarchicalResolve) {
  // A hub term shared by every record makes the candidate space complete
  // (n·(n−1)/2 pairs), so the hierarchical endgame has tens of thousands
  // of heap operations to do — far more than a 1 ms deadline allows. The
  // endgame polls per merge, so the deadline fires inside the run and is
  // answered as DeadlineExceeded on a connection that stays usable.
  Dataset dataset("server-slow-test");
  for (int i = 0; i < 300; ++i) {
    dataset.AddRecord(0, "hub entry" + std::to_string(i) + " tag" +
                             std::to_string(i % 7));
  }
  ResolutionServiceOptions options;
  options.fusion.rounds = 1;
  options.fusion.cliquerank.max_steps = 5;
  auto built = ResolutionService::Create(std::move(dataset), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto service = std::move(built).value();
  auto started = GterdServer::Start(service.get(), {});
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto server = std::move(started).value();

  auto connected = GterdClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(connected.ok());
  GterdClient client = std::move(connected).value();

  JsonValue params = JsonValue::MakeObject();
  params.Set("text", JsonValue::MakeString("hub entry42"));
  params.Set("clusterer", JsonValue::MakeString("hierarchical"));
  const auto start = steady_clock::now();
  auto r = client.Call("resolve", std::move(params), /*deadline_ms=*/1);
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LT(SecondsSince(start), 10.0);

  // The same connection still serves; without a deadline the same
  // request completes.
  JsonValue retry = JsonValue::MakeObject();
  retry.Set("text", JsonValue::MakeString("hub entry42"));
  retry.Set("clusterer", JsonValue::MakeString("hierarchical"));
  auto ok = client.Call("resolve", std::move(retry));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

TEST(GterdServerTest, AddRecordIsImmediatelyResolvable) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  JsonValue add = JsonValue::MakeObject();
  add.Set("text",
          JsonValue::MakeString("zanzibar mango treehouse 5105551111"));
  auto added = client.Call("add_record", std::move(add));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value().NumberOr("record", -1), 5.0);

  JsonValue query = JsonValue::MakeObject();
  query.Set("text", JsonValue::MakeString("zanzibar treehouse"));
  auto resolved = client.Call("resolve", std::move(query));
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved.value().Find("best")->NumberOr("record", -1), 5.0);
}

// --- Incremental serving mode (DESIGN.md §4g) --------------------------

ResolutionServiceOptions IncrementalOptions() {
  ResolutionServiceOptions options;
  options.incremental = true;
  return options;
}

TEST(GterdServerTest, IncrementalAddRecordResolvesIntoExistingCluster) {
  ServerFixture fx({}, IncrementalOptions());
  GterdClient client = fx.Connect();

  // The incremental fixture clusters the two duplicate pairs at build.
  auto before = client.Call("stats", JsonValue::MakeObject());
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(before.value().Find("incremental")->boolean());
  EXPECT_EQ(before.value().NumberOr("cliques", -1), 3.0);

  // A third copy of the golden-dragon record must land in its cluster —
  // a real ingest, not the batch mode's provisional singleton.
  JsonValue add = JsonValue::MakeObject();
  add.Set("text",
          JsonValue::MakeString("golden dragon szechuan pasadena 8185551234"));
  auto added = client.Call("add_record", std::move(add));
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(added.value().NumberOr("record", -1), 5.0);
  EXPECT_EQ(added.value().NumberOr("cluster_size", -1), 3.0);
  EXPECT_GE(added.value().NumberOr("new_pairs", -1), 2.0);
  // Satellite contract: the response reports the post-ingest sizes.
  EXPECT_EQ(added.value().NumberOr("records", -1), 6.0);
  EXPECT_GT(added.value().NumberOr("vocabulary_terms", -1), 0.0);

  // Its cluster is the one records 0/1 already occupy.
  JsonValue query = JsonValue::MakeObject();
  query.Set("text", JsonValue::MakeString("golden dragon pasadena"));
  auto resolved = client.Call("resolve", std::move(query));
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  const JsonValue* clique = resolved.value().Find("clique");
  ASSERT_NE(clique, nullptr);
  EXPECT_EQ(clique->array().size(), 3u);

  // And pair_score sees the new record inside the live candidate space.
  JsonValue pair = JsonValue::MakeObject();
  pair.Set("a", JsonValue::MakeNumber(0));
  pair.Set("b", JsonValue::MakeNumber(5));
  auto scored = client.Call("pair_score", std::move(pair));
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  EXPECT_TRUE(scored.value().Find("in_candidate_space")->boolean());
  EXPECT_TRUE(scored.value().Find("match")->boolean());
}

TEST(GterdServerTest, IncrementalStatsExposesIngestCounters) {
  ServerFixture fx({}, IncrementalOptions());
  GterdClient client = fx.Connect();
  JsonValue add = JsonValue::MakeObject();
  add.Set("text", JsonValue::MakeString("harbor house oyster bar 4155552222"));
  ASSERT_TRUE(client.Call("add_record", std::move(add)).ok());

  auto stats = client.Call("stats", JsonValue::MakeObject());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue* ingest = stats.value().Find("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_EQ(ingest->NumberOr("records_ingested", -1), 1.0);
  // Build-batch converge + one ingest converge.
  EXPECT_GE(ingest->NumberOr("dirty_reiter_runs", -1), 2.0);
  EXPECT_GE(ingest->NumberOr("last_converge_sweeps", -1), 1.0);
  EXPECT_FALSE(ingest->Find("pending_dirty")->boolean());
  EXPECT_GE(ingest->NumberOr("state_version", -1), 2.0);
  // Escape-hatch rates: served, and zero for the batch-build converge and a
  // small ingest on this corpus.
  EXPECT_EQ(ingest->NumberOr("stall_escalations", -1), 0.0);
  EXPECT_EQ(ingest->NumberOr("subsystem_solves", -1), 0.0);
  // The batch-mode fixture serves no ingest object.
  ServerFixture batch;
  GterdClient batch_client = batch.Connect();
  auto batch_stats = batch_client.Call("stats", JsonValue::MakeObject());
  ASSERT_TRUE(batch_stats.ok());
  EXPECT_FALSE(batch_stats.value().Find("incremental")->boolean());
  EXPECT_EQ(batch_stats.value().Find("ingest"), nullptr);
}

TEST(GterdServerTest, IncrementalTwoThreadPoolServesReadsDuringIngest) {
  // gterd --incremental --threads=2: requests and their stage work share
  // one 2-worker pool. An add_record holds the service lock exclusively
  // while its dirty re-ITER waits on ParallelFor chunks; reads queued in
  // the same pool must not be run inside that wait, where they would
  // re-lock the mutex on the writer's own thread and abort the daemon.
  auto data = GenerateBenchmark(BenchmarkKind::kPaper, 0.2, 2018);
  RemoveFrequentTerms(&data.dataset);
  std::vector<std::string> stream;
  for (RecordId r = 0; r < 12; ++r) {
    stream.push_back(data.dataset.record(r * 7).raw_text);
  }
  ThreadPool pool(2);
  ExecContext ctx = ExecContext::WithPool(&pool);
  ResolutionServiceOptions options;
  options.incremental = true;
  auto built =
      ResolutionService::Create(std::move(data.dataset), options, ctx);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  std::unique_ptr<ResolutionService> service = std::move(built).value();
  auto started = GterdServer::Start(service.get(), {}, ctx);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  std::unique_ptr<GterdServer> server = std::move(started).value();
  auto writer = GterdClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  std::atomic<bool> writing{true};
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < 4; ++c) {
    readers.emplace_back([&, c] {
      auto connected = GterdClient::Connect("127.0.0.1", server->port());
      if (!connected.ok()) {
        ++failed;
        return;
      }
      GterdClient client = std::move(connected).value();
      for (int i = 0; writing.load() || i < 20; ++i) {
        JsonValue params = JsonValue::MakeObject();
        Result<JsonValue> r = Status::Internal("unset");
        if ((c + i) % 2 == 0) {
          params.Set("text", JsonValue::MakeString(stream[i % stream.size()]));
          r = client.Call("resolve", std::move(params));
        } else {
          params.Set("a", JsonValue::MakeNumber(i % 50));
          params.Set("b", JsonValue::MakeNumber(i % 50 + 1));
          r = client.Call("pair_score", std::move(params));
        }
        if (r.ok()) {
          ++ok;
        } else {
          ++failed;
        }
      }
    });
  }
  for (const std::string& text : stream) {
    JsonValue add = JsonValue::MakeObject();
    add.Set("text", JsonValue::MakeString(text));
    if (writer.value().Call("add_record", std::move(add)).ok()) {
      ++ok;
    } else {
      ++failed;
    }
  }
  writing.store(false);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(ok.load(), static_cast<int>(stream.size()) + 4 * 20);
}

TEST(GterdServerTest, MalformedJsonAnswersErrorAndKeepsConnection) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  ASSERT_TRUE(client.SendRaw("{this is not json").ok());
  auto frame = client.ReadResponseFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_FALSE(frame.value().Find("ok")->boolean());
  EXPECT_TRUE(frame.value().Find("id")->is_null());
  EXPECT_EQ(frame.value().Find("error")->Find("code")->string(),
            "InvalidArgument");
  // The line framing survived: the same connection still serves requests.
  auto stats = client.Call("stats", JsonValue::MakeObject());
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

TEST(GterdServerTest, BlankAndCrlfLinesAreTolerated) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  ASSERT_TRUE(client.SendRaw("").ok());  // blank keep-alive line
  ASSERT_TRUE(client.SendRaw("{\"id\": 9, \"method\": \"stats\"}\r").ok());
  auto frame = client.ReadResponseFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().Find("id")->number(), 9.0);
  EXPECT_TRUE(frame.value().Find("ok")->boolean());
}

TEST(GterdServerTest, PipelinedRequestsEachGetAResponse) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  ASSERT_TRUE(client
                  .SendRaw("{\"id\": 101, \"method\": \"stats\"}\n"
                           "{\"id\": 102, \"method\": \"stats\"}")
                  .ok());
  double seen = 0;
  for (int i = 0; i < 2; ++i) {
    auto frame = client.ReadResponseFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_TRUE(frame.value().Find("ok")->boolean());
    seen += frame.value().Find("id")->number();
  }
  EXPECT_EQ(seen, 203.0);  // both ids answered, in whatever order
}

TEST(GterdServerTest, OversizedFrameAnswersErrorThenCloses) {
  GterdServerOptions options;
  options.max_frame_bytes = 256;
  ServerFixture fx(options);
  GterdClient client = fx.Connect();
  ASSERT_TRUE(client.SendRaw(std::string(1024, 'a')).ok());
  auto frame = client.ReadResponseFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_FALSE(frame.value().Find("ok")->boolean());
  EXPECT_EQ(frame.value().Find("error")->Find("code")->string(),
            "InvalidArgument");
  // The stream is unframeable past this point: the server closes it.
  EXPECT_EQ(client.ReadResponseFrame().status().code(), StatusCode::kIOError);
}

TEST(GterdServerTest, OversizedFrameWithoutNewlineAlsoCloses) {
  GterdServerOptions options;
  options.max_frame_bytes = 256;
  ServerFixture fx(options);
  // Raw socket: GterdClient::SendRaw always appends the framing newline,
  // and this test is about a line that never gets one.
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string blob(4096, 'b');
  ASSERT_EQ(send(fd, blob.data(), blob.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(blob.size()));
  // The server answers one InvalidArgument error frame, then closes.
  std::string received;
  char chunk[1024];
  while (true) {
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF: server closed after the error frame
    received.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  ASSERT_FALSE(received.empty());
  ASSERT_EQ(received.back(), '\n');
  auto frame = JsonValue::Parse(
      std::string_view(received).substr(0, received.size() - 1));
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_FALSE(frame.value().Find("ok")->boolean());
  EXPECT_EQ(frame.value().Find("error")->Find("code")->string(),
            "InvalidArgument");
}

TEST(GterdServerTest, DeadlineExpiredReturnsDeadlineExceeded) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  JsonValue params = JsonValue::MakeObject();
  params.Set("ms", JsonValue::MakeNumber(30000));
  const auto start = steady_clock::now();
  auto r = client.Call("debug_sleep", std::move(params), /*deadline_ms=*/50);
  // The request is answered (not dropped), with the deadline code, long
  // before the requested sleep would have finished.
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(SecondsSince(start), 10.0);
}

TEST(GterdServerTest, ServerDefaultDeadlineApplies) {
  GterdServerOptions options;
  options.default_deadline_ms = 50;
  ServerFixture fx(options);
  GterdClient client = fx.Connect();
  JsonValue params = JsonValue::MakeObject();
  params.Set("ms", JsonValue::MakeNumber(30000));
  auto r = client.Call("debug_sleep", std::move(params));
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GterdServerTest, MidRequestDisconnectCancelsInFlightWork) {
  ServerFixture fx;
  const auto start = steady_clock::now();
  {
    GterdClient client = fx.Connect();
    ASSERT_TRUE(
        client
            .SendRaw(
                R"({"id": 1, "method": "debug_sleep", "params": {"ms": 60000}})")
            .ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    // Client vanishes mid-request.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // If the disconnect did not cancel the sleep, Stop() would block on the
  // worker for the remaining ~60s and the test would time out.
  fx.server->Stop();
  EXPECT_LT(SecondsSince(start), 30.0);
}

TEST(GterdServerTest, SixteenConcurrentConnectionsZeroProtocolErrors) {
  ServerFixture fx;
  constexpr int kConnections = 16;
  constexpr int kRequests = 50;
  std::atomic<int> ok{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> workers;
  workers.reserve(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    workers.emplace_back([&fx, &ok, &errors, c] {
      auto connected = GterdClient::Connect("127.0.0.1", fx.server->port());
      if (!connected.ok()) {
        errors += kRequests;
        return;
      }
      GterdClient client = std::move(connected).value();
      for (int i = 0; i < kRequests; ++i) {
        Result<JsonValue> r = Status::Internal("unset");
        switch ((c + i) % 3) {
          case 0:
            r = client.Call("stats", JsonValue::MakeObject());
            break;
          case 1: {
            JsonValue params = JsonValue::MakeObject();
            params.Set("a", JsonValue::MakeNumber(i % 5));
            params.Set("b", JsonValue::MakeNumber((i + 1) % 5));
            r = client.Call("pair_score", std::move(params));
            break;
          }
          default: {
            JsonValue params = JsonValue::MakeObject();
            params.Set("text",
                       JsonValue::MakeString("blue lagoon seafood grill"));
            r = client.Call("resolve", std::move(params));
            break;
          }
        }
        if (r.ok()) {
          ++ok;
        } else {
          ++errors;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(ok.load(), kConnections * kRequests);
  EXPECT_GE(fx.server->connections_accepted(), 16u);
}

// --- Serving-side observability (DESIGN.md §4c) -------------------------

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string contents;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, got);
  }
  std::fclose(f);
  return contents;
}

TEST(GterdServerTest, MetricsListenerServesMetricsHealthzAndVarz) {
  GterdServerOptions options;
  options.metrics_port = 0;
  ServerFixture fx(options);
  ASSERT_NE(fx.server->metrics_port(), 0);

  auto healthz =
      GterdClient::HttpGet("127.0.0.1", fx.server->metrics_port(), "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz.value(), "ok\n");

  // Drive one request so the sliding histograms are populated.
  GterdClient client = fx.Connect();
  JsonValue params = JsonValue::MakeObject();
  params.Set("text", JsonValue::MakeString("golden dragon pasadena"));
  ASSERT_TRUE(client.Call("resolve", std::move(params)).ok());

  auto metrics =
      GterdClient::HttpGet("127.0.0.1", fx.server->metrics_port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.value().find("# TYPE gter_server_uptime_s gauge"),
            std::string::npos)
      << metrics.value();
  PromParsedHistogram work_us;
  EXPECT_TRUE(FindPromHistogram(metrics.value(),
                                "gter_server_resolve_work_us", &work_us))
      << metrics.value();
  EXPECT_GE(work_us.count, 1u);

  auto varz =
      GterdClient::HttpGet("127.0.0.1", fx.server->metrics_port(), "/varz");
  ASSERT_TRUE(varz.ok()) << varz.status().ToString();
  auto varz_json = JsonValue::Parse(varz.value());
  ASSERT_TRUE(varz_json.ok()) << varz.value();
  EXPECT_NE(varz_json.value().Find("gauges"), nullptr);

  auto missing =
      GterdClient::HttpGet("127.0.0.1", fx.server->metrics_port(), "/nope");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("404"), std::string::npos)
      << missing.status().ToString();
}

TEST(GterdServerTest, MetricsListenerRejectsNonGet) {
  GterdServerOptions options;
  options.metrics_port = 0;
  ServerFixture fx(options);
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fx.server->metrics_port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "POST /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[1024];
  while (true) {
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  EXPECT_NE(response.find("405"), std::string::npos) << response;
}

TEST(GterdServerTest, EightConcurrentScrapersDuringNdjsonTraffic) {
  GterdServerOptions options;
  options.metrics_port = 0;
  ServerFixture fx(options);
  constexpr int kScrapers = 8;
  constexpr int kScrapes = 20;
  std::atomic<int> scrape_errors{0};
  std::atomic<bool> stop_traffic{false};

  // NDJSON traffic in the background while scrapers hammer /metrics.
  std::thread traffic([&] {
    auto connected = GterdClient::Connect("127.0.0.1", fx.server->port());
    if (!connected.ok()) return;
    GterdClient client = std::move(connected).value();
    while (!stop_traffic.load(std::memory_order_relaxed)) {
      JsonValue params = JsonValue::MakeObject();
      params.Set("text", JsonValue::MakeString("blue lagoon seafood"));
      if (!client.Call("resolve", std::move(params)).ok()) break;
    }
  });

  std::vector<std::thread> scrapers;
  for (int s = 0; s < kScrapers; ++s) {
    scrapers.emplace_back([&fx, &scrape_errors, s] {
      for (int i = 0; i < kScrapes; ++i) {
        const char* path = (s + i) % 2 == 0 ? "/metrics" : "/healthz";
        auto got =
            GterdClient::HttpGet("127.0.0.1", fx.server->metrics_port(), path);
        if (!got.ok() || got.value().empty()) ++scrape_errors;
      }
    });
  }
  for (auto& t : scrapers) t.join();
  stop_traffic.store(true, std::memory_order_relaxed);
  traffic.join();
  EXPECT_EQ(scrape_errors.load(), 0);

  // A final scrape parses and carries the traffic's histograms.
  auto metrics =
      GterdClient::HttpGet("127.0.0.1", fx.server->metrics_port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  PromParsedHistogram work_us;
  EXPECT_TRUE(FindPromHistogram(metrics.value(),
                                "gter_server_resolve_work_us", &work_us));
  EXPECT_GE(work_us.count, 1u);
}

TEST(GterdServerTest, AccessLogHasOneLinePerRequestWithUniqueIds) {
  GterdServerOptions options;
  options.access_log_path =
      ::testing::TempDir() + "/gterd_access_log_test.ndjson";
  std::remove(options.access_log_path.c_str());
  ServerFixture fx(options);
  GterdClient client = fx.Connect();

  constexpr int kResolves = 5;
  for (int i = 0; i < kResolves; ++i) {
    JsonValue params = JsonValue::MakeObject();
    params.Set("text", JsonValue::MakeString("taco fiesta cantina"));
    params.Set("clusterer", JsonValue::MakeString("connected_components"));
    ASSERT_TRUE(client.Call("resolve", std::move(params), 5000).ok());
  }
  ASSERT_TRUE(client.Call("stats", JsonValue::MakeObject()).ok());
  // Errors are logged too.
  EXPECT_FALSE(client.Call("frobnicate", JsonValue::MakeObject()).ok());
  constexpr int kTotal = kResolves + 2;

  // Every response implies its log line was already written and flushed.
  const std::string log = ReadWholeFile(options.access_log_path);
  std::set<uint64_t> ids;
  std::set<std::string> methods;
  int lines = 0;
  size_t pos = 0;
  while (pos < log.size()) {
    const size_t eol = log.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated line";
    const std::string line = log.substr(pos, eol - pos);
    pos = eol + 1;
    ++lines;
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const JsonValue& entry = parsed.value();
    ids.insert(static_cast<uint64_t>(entry.NumberOr("request_id", 0)));
    methods.insert(entry.Find("method")->string());
    EXPECT_GE(entry.NumberOr("work_us", -1.0), 0.0) << line;
    EXPECT_GE(entry.NumberOr("queue_us", -1.0), 0.0) << line;
    EXPECT_GT(entry.NumberOr("bytes_in", 0.0), 0.0) << line;
    EXPECT_GT(entry.NumberOr("bytes_out", 0.0), 0.0) << line;
    const std::string status = entry.Find("status")->string();
    const std::string method = entry.Find("method")->string();
    if (method == "frobnicate") {
      EXPECT_EQ(status, "NotFound") << line;
    } else {
      EXPECT_EQ(status, "OK") << line;
    }
    if (method == "resolve") {
      EXPECT_EQ(entry.Find("clusterer")->string(), "connected_components") << line;
      EXPECT_EQ(entry.NumberOr("deadline_ms", 0.0), 5000.0) << line;
      EXPECT_NE(entry.Find("slack_ms"), nullptr) << line;
    }
  }
  EXPECT_EQ(lines, kTotal);
  EXPECT_EQ(ids.size(), static_cast<size_t>(kTotal));  // ids are unique
  EXPECT_EQ(methods.size(), 3u);  // resolve, stats, frobnicate
  std::remove(options.access_log_path.c_str());
}

TEST(GterdServerTest, StatsServesUptimeAndLivePercentiles) {
  ServerFixture fx;
  GterdClient client = fx.Connect();
  for (int i = 0; i < 3; ++i) {
    JsonValue params = JsonValue::MakeObject();
    params.Set("text", JsonValue::MakeString("golden dragon"));
    ASSERT_TRUE(client.Call("resolve", std::move(params)).ok());
  }
  auto stats = client.Call("stats", JsonValue::MakeObject());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats.value().NumberOr("uptime_s", -1.0), 0.0);
  const JsonValue* live = stats.value().Find("live");
  ASSERT_NE(live, nullptr);
  const JsonValue* resolve = live->Find("resolve");
  ASSERT_NE(resolve, nullptr) << stats.value().Serialize();
  EXPECT_GE(resolve->NumberOr("count", 0.0), 3.0);
  const JsonValue* work = resolve->Find("work_us");
  ASSERT_NE(work, nullptr);
  EXPECT_GT(work->NumberOr("p50", -1.0), 0.0);
  EXPECT_GE(work->NumberOr("p99", 0.0), work->NumberOr("p50", 0.0));
  EXPECT_NE(resolve->Find("queue_us"), nullptr);
}

TEST(GterdServerTest, DebugSlowCapturesSlowRequestsWithSpans) {
  GterdServerOptions options;
  options.slow_request_ms = 20;
  ServerFixture fx(options);
  GterdClient client = fx.Connect();

  // A fast request must not land in the ring.
  ASSERT_TRUE(client.Call("stats", JsonValue::MakeObject()).ok());
  auto empty = client.Call("debug_slow", JsonValue::MakeObject());
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(empty.value().NumberOr("threshold_ms", -1.0), 20.0);
  EXPECT_EQ(empty.value().Find("slow")->array().size(), 0u);

  // debug_sleep(60ms) trips the 20ms threshold.
  JsonValue params = JsonValue::MakeObject();
  params.Set("ms", JsonValue::MakeNumber(60));
  ASSERT_TRUE(client.Call("debug_sleep", std::move(params)).ok());

  auto dump = client.Call("debug_slow", JsonValue::MakeObject());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const JsonValue* slow = dump.value().Find("slow");
  ASSERT_NE(slow, nullptr);
  ASSERT_EQ(slow->array().size(), 1u) << dump.value().Serialize();
  const JsonValue& rec = slow->array()[0];
  EXPECT_EQ(rec.Find("method")->string(), "debug_sleep");
  EXPECT_EQ(rec.Find("status")->string(), "OK");
  EXPECT_GE(rec.NumberOr("work_us", 0.0), 20000.0);
  const JsonValue* spans = rec.Find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_GE(spans->array().size(), 1u) << dump.value().Serialize();
  // The handler's stage span is among them, with a plausible duration.
  bool saw_handler = false;
  for (const JsonValue& span : spans->array()) {
    if (span.Find("name")->string() == "server/debug_sleep") {
      saw_handler = true;
      EXPECT_GE(span.NumberOr("dur_us", 0.0), 20000.0);
    }
  }
  EXPECT_TRUE(saw_handler) << dump.value().Serialize();
}

TEST(GterdServerTest, StopWithIdleConnectionsDoesNotHang) {
  ServerFixture fx;
  GterdClient a = fx.Connect();
  GterdClient b = fx.Connect();
  auto warm = a.Call("stats", JsonValue::MakeObject());
  ASSERT_TRUE(warm.ok());
  fx.server->Stop();
  // The open sockets observe the shutdown as EOF.
  EXPECT_EQ(b.Call("stats", JsonValue::MakeObject()).status().code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace gter
