// Tests for the folearnd server stack: protocol round trips, warm-state
// request handling against the direct library calls, multi-tenant
// concurrency determinism, admission control (shedding), deadline
// degradation, graceful shutdown, durability (journaled sessions and
// model handles surviving a restart), request-id dedup, idle-TTL
// eviction with lazy re-warm, client-disconnect robustness, and the
// retrying client. Runs the server in-process on a unique unix socket
// per fixture; the TSan CI job runs this whole file under
// ThreadSanitizer.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "graph/fog.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "mc/plan_cache.h"
#include "fo/parser.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/rng.h"

namespace folearn {
namespace {

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/folearn_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// A small coloured graph and a training set labelled "is Red", the same
// shape as the CLI pipeline test.
struct TestProblem {
  Graph graph = Graph(0);
  TrainingSet data;
  std::string graph_text;
  std::string data_text;
};

TestProblem MakeProblem(int n, int seed) {
  Rng rng(seed);
  TestProblem problem;
  problem.graph = MakeRandomTree(n, rng);
  ColorId red = problem.graph.AddColor("Red");
  for (Vertex v = 0; v < n; v += 3) problem.graph.SetColor(v, red);
  for (Vertex v = 0; v < n; ++v) {
    problem.data.push_back({{v}, problem.graph.HasColor(v, red)});
  }
  problem.graph_text = ToText(problem.graph);
  problem.data_text = TrainingSetToText(problem.data);
  return problem;
}

// A throwaway state directory for durability tests, removed on teardown.
std::string MakeStateDir() {
  static std::atomic<int> counter{0};
  std::string dir = "/tmp/folearn_server_test_state_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1));
  return dir;
}

void RemoveTreeBestEffort(const std::string& dir) {
  if (dir.empty() || dir.rfind("/tmp/", 0) != 0) return;
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.socket_path = UniqueSocketPath();
    options_ = options;
    server_ = std::make_unique<Server>(std::move(options));
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  // Stops the daemon and brings up a fresh Server instance on the *same*
  // socket path and state dir — the in-process analogue of a daemon
  // restart.
  void RestartServer() {
    server_->Shutdown();
    serve_thread_.join();
    server_ = std::make_unique<Server>(ServerOptions(options_));
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { server_->Serve(); });
  }

  void TearDown() override {
    if (server_ != nullptr) {
      server_->Shutdown();
      if (serve_thread_.joinable()) serve_thread_.join();
    }
    RemoveTreeBestEffort(options_.state_dir);
  }

  Client MustConnect() {
    StatusOr<Client> client = Client::Connect(server_->socket_path());
    EXPECT_TRUE(client.ok()) << client.status().message();
    return *std::move(client);
  }

  // A raw connected socket, bypassing Client, for torn-frame tests.
  int RawConnect() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, server_->socket_path().c_str(),
                server_->socket_path().size() + 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::thread serve_thread_;
};

TEST(ProtocolTest, MessageEncodeDecodeRoundTrip) {
  Message message;
  message.Set("op", "learn");
  message.Set("data", std::string("binary\0bytes\xff", 13));
  message.Set("empty", "");
  StatusOr<Message> decoded = DecodeMessage(EncodeMessage(message));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->fields.size(), 3u);
  EXPECT_EQ(decoded->Get("op"), "learn");
  EXPECT_EQ(decoded->Get("data"), std::string("binary\0bytes\xff", 13));
  EXPECT_TRUE(decoded->Has("empty"));
}

TEST(ProtocolTest, DecodeRejectsTruncatedPayloads) {
  Message message;
  message.Set("key", "value");
  std::string payload = EncodeMessage(message);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    StatusOr<Message> decoded = DecodeMessage(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  std::string trailing = payload + "x";
  EXPECT_FALSE(DecodeMessage(trailing).ok());
}

TEST(PlanCacheTest, HitsAndBudgetInvariant) {
  PlanCache cache(/*max_bytes=*/16 * 1024);
  FormulaRef sentence = MustParseFormula("exists x. exists y. E(x, y)");
  EvalOptions options;
  CachedPlan first = cache.GetOrCompile(sentence, {}, options);
  CachedPlan second = cache.GetOrCompile(sentence, {}, options);
  EXPECT_EQ(first.plan.get(), second.plan.get());
  EXPECT_EQ(first.bytecode.get(), second.bytecode.get());
  EXPECT_NE(first.bytecode, nullptr);  // default engine is the VM
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  // Distinct formulas fill the budget; the invariant holds throughout.
  for (int i = 0; i < 200; ++i) {
    std::string text = "exists x. exists y" + std::to_string(i) +
                       ". E(x, y" + std::to_string(i) + ")";
    cache.GetOrCompile(MustParseFormula(text), {}, options);
    ASSERT_LE(cache.bytes(), cache.max_bytes());
  }
  EXPECT_GT(cache.evictions(), 0);
}

TEST(PlanCacheTest, EngineKeyedEntriesDoNotCollide) {
  PlanCache cache;
  FormulaRef sentence = MustParseFormula("exists x. E(x, x)");
  EvalOptions vm;
  vm.engine = EvalEngine::kVm;
  EvalOptions tree;
  tree.engine = EvalEngine::kCompiled;
  CachedPlan vm_entry = cache.GetOrCompile(sentence, {}, vm);
  CachedPlan tree_entry = cache.GetOrCompile(sentence, {}, tree);
  // Same formula, different engines: two distinct entries, the VM one
  // carrying bytecode, the tree one not — neither evicts or shadows the
  // other, and each is billed its own bytes.
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.entries(), 2);
  EXPECT_NE(vm_entry.plan.get(), tree_entry.plan.get());
  EXPECT_NE(vm_entry.bytecode, nullptr);
  EXPECT_EQ(tree_entry.bytecode, nullptr);
  // An options fingerprint change is a distinct entry too.
  EvalOptions vm_mcf = vm;
  vm_mcf.missing_color_is_false = true;
  cache.GetOrCompile(sentence, {}, vm_mcf);
  EXPECT_EQ(cache.misses(), 3);
  EXPECT_EQ(cache.entries(), 3);
  // Repeats of every variant hit.
  cache.GetOrCompile(sentence, {}, vm);
  cache.GetOrCompile(sentence, {}, tree);
  cache.GetOrCompile(sentence, {}, vm_mcf);
  EXPECT_EQ(cache.hits(), 3);
}

TEST(PlanCacheTest, OversizePlanServedUncached) {
  PlanCache cache(/*max_bytes=*/1);
  FormulaRef sentence = MustParseFormula("exists x. E(x, x)");
  CachedPlan entry = cache.GetOrCompile(sentence, {}, EvalOptions{});
  ASSERT_NE(entry.plan, nullptr);
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
  EXPECT_EQ(cache.oversize_misses(), 1);
}

TEST_F(ServerTest, PingRoundTrip) {
  StartServer(ServerOptions{});
  Client client = MustConnect();
  Message request;
  request.Set("op", "ping");
  request.Set("payload", "hello");
  StatusOr<Message> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response->Get("status"), kStatusOk);
  EXPECT_EQ(response->Get("payload"), "hello");
  EXPECT_EQ(ResponseExitCode(*response), 0);
}

TEST_F(ServerTest, LearnEvaluateQueryMatchDirectLibraryCalls) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(30, 5);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok()) << session.status().message();

  // learn over the wire == BruteForceErm called directly.
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> learned = client.Call(learn);
  ASSERT_TRUE(learned.ok());
  ASSERT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");

  ErmOptions options;
  options.rank = 1;
  options.radius = 1;
  ErmResult direct = BruteForceErm(problem.graph, problem.data, 0, options);
  EXPECT_EQ(learned->Get("model"),
            HypothesisToText(direct.hypothesis.ToExplicit()));
  EXPECT_EQ(learned->Get("training-error"), "0.000000");

  // evaluate the learned model over the wire == its direct error (0).
  Message evaluate;
  evaluate.Set("op", "evaluate");
  evaluate.Set("session", std::to_string(*session));
  evaluate.Set("model", learned->Get("model"));
  evaluate.Set("data", problem.data_text);
  StatusOr<Message> evaluated = client.Call(evaluate);
  ASSERT_TRUE(evaluated.ok());
  ASSERT_EQ(evaluated->Get("status"), kStatusOk) << evaluated->Get("error");
  EXPECT_EQ(evaluated->Get("error"), "0.000000");

  // query: a red vertex exists; repeated queries hit the warm memo and
  // the shared plan cache.
  for (int i = 0; i < 3; ++i) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*session));
    query.Set("sentence", "exists x. Red(x)");
    StatusOr<Message> answered = client.Call(query);
    ASSERT_TRUE(answered.ok());
    ASSERT_EQ(answered->Get("status"), kStatusOk) << answered->Get("error");
    EXPECT_EQ(answered->Get("result"), "true");
  }
  ServerStats stats = server_->Snapshot();
  EXPECT_GE(stats.plan_hits, 2);  // the two repeated query compilations
  EXPECT_TRUE(client.CloseSession(*session).ok());
}

TEST_F(ServerTest, SecondLearnReusesWarmRegistryAndBallCache) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(40, 7);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> cold = client.Call(learn);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->Get("status"), kStatusOk);
  StatusOr<Message> warm = client.Call(learn);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->Get("status"), kStatusOk);
  // Warm state must never change answers — model bytes are identical.
  EXPECT_EQ(cold->Get("model"), warm->Get("model"));
  EXPECT_EQ(cold->Get("training-error"), warm->Get("training-error"));
}

// The multi-tenant determinism contract: N clients with their own
// sessions, each running an interleaved learn/evaluate/query stream
// concurrently, get byte-identical results to the same streams executed
// sequentially against a fresh server.
TEST_F(ServerTest, ConcurrentSessionsMatchSequentialBaselines) {
  constexpr int kClients = 4;
  constexpr int kRounds = 3;

  // Sequential baselines, computed directly from the library.
  std::vector<TestProblem> problems;
  std::vector<std::string> baseline_models;
  for (int c = 0; c < kClients; ++c) {
    problems.push_back(MakeProblem(24 + 4 * c, 100 + c));
    ErmOptions options;
    options.rank = 1;
    options.radius = 1;
    ErmResult direct =
        BruteForceErm(problems[c].graph, problems[c].data, 0, options);
    baseline_models.push_back(
        HypothesisToText(direct.hypothesis.ToExplicit()));
  }

  StartServer(ServerOptions{});
  std::vector<std::thread> workers;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    workers.emplace_back([this, c, &problems, &baseline_models, &failures] {
      StatusOr<Client> client = Client::Connect(server_->socket_path());
      if (!client.ok()) {
        failures[c] = client.status().message();
        return;
      }
      StatusOr<uint64_t> session =
          client->LoadGraph(problems[c].graph_text);
      if (!session.ok()) {
        failures[c] = session.status().message();
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        Message learn;
        learn.Set("op", "learn");
        learn.Set("session", std::to_string(*session));
        learn.Set("data", problems[c].data_text);
        learn.Set("rank", "1");
        learn.Set("radius", "1");
        StatusOr<Message> learned = client->Call(learn);
        if (!learned.ok() || learned->Get("status") != kStatusOk ||
            learned->Get("model") != baseline_models[c]) {
          failures[c] = "learn mismatch in round " + std::to_string(round);
          return;
        }
        Message evaluate;
        evaluate.Set("op", "evaluate");
        evaluate.Set("session", std::to_string(*session));
        evaluate.Set("model", learned->Get("model"));
        evaluate.Set("data", problems[c].data_text);
        StatusOr<Message> evaluated = client->Call(evaluate);
        if (!evaluated.ok() ||
            evaluated->Get("error") != learned->Get("training-error")) {
          failures[c] = "evaluate mismatch in round " + std::to_string(round);
          return;
        }
        Message query;
        query.Set("op", "query");
        query.Set("session", std::to_string(*session));
        query.Set("sentence", "exists x. Red(x)");
        StatusOr<Message> answered = client->Call(query);
        if (!answered.ok() || answered->Get("result") != "true") {
          failures[c] = "query mismatch in round " + std::to_string(round);
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }
}

// Overload: with max_inflight=1 and one slow request holding the slot,
// concurrent requests are shed with a healthy response — never a dropped
// or hung connection.
TEST_F(ServerTest, OverloadShedsInsteadOfHangingOrSevering) {
  ServerOptions options;
  options.max_inflight = 1;
  StartServer(std::move(options));
  // The slow leg must reliably occupy the single slot while the quick
  // client hammers: periodic labels prevent the zero-error early stop,
  // so the learn scans all n^ell candidates at radius 2.
  TestProblem slow_problem = MakeProblem(120, 11);
  for (Vertex v = 0; v < 120; ++v) {
    slow_problem.data[v].label = v % 7 < 3;
  }
  slow_problem.data_text = TrainingSetToText(slow_problem.data);
  TestProblem quick_problem = MakeProblem(10, 12);

  Client slow_client = MustConnect();
  StatusOr<uint64_t> slow_session =
      slow_client.LoadGraph(slow_problem.graph_text);
  ASSERT_TRUE(slow_session.ok());
  Client quick_client = MustConnect();
  StatusOr<uint64_t> quick_session =
      quick_client.LoadGraph(quick_problem.graph_text);
  ASSERT_TRUE(quick_session.ok());

  std::thread slow_thread([&] {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*slow_session));
    learn.Set("data", slow_problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "2");
    learn.Set("ell", "1");
    StatusOr<Message> response = slow_client.Call(learn);
    EXPECT_TRUE(response.ok());
  });

  // Wait until the slow learn actually occupies the slot — the inflight
  // gauge flips to 1 once the request is admitted. Without this the
  // hammer loop can race ahead of the slow thread's connect+write and
  // observe zero sheds.
  const auto admit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->Snapshot().inflight < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), admit_deadline)
        << "slow learn was never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Hammer the busy server; every response must arrive, and at least one
  // must be shed while the slow learn occupies the only slot.
  int shed = 0;
  int answered = 0;
  for (int i = 0; i < 50; ++i) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*quick_session));
    query.Set("sentence", "exists x. Red(x)");
    StatusOr<Message> response = quick_client.Call(query);
    ASSERT_TRUE(response.ok()) << response.status().message();
    const std::string status = response->Get("status");
    ASSERT_TRUE(status == kStatusOk || status == kStatusShed) << status;
    if (status == kStatusShed) {
      ++shed;
      EXPECT_EQ(ResponseExitCode(*response), 3);
    } else {
      ++answered;
      EXPECT_EQ(response->Get("result"), "true");
    }
  }
  slow_thread.join();
  EXPECT_GT(shed, 0) << "answered=" << answered;
  // Control-plane requests are admitted even under full load.
  EXPECT_TRUE(quick_client.Ping().ok());
  ServerStats stats = server_->Snapshot();
  EXPECT_EQ(stats.shed, shed);
}

TEST_F(ServerTest, DeadlineDegradesToPartialNotFailure) {
  ServerOptions options;
  options.max_deadline_ms = 0;  // every substantive request trips at once
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(30, 13);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  learn.Set("ell", "1");
  StatusOr<Message> response = client.Call(learn);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("status"), kStatusPartial);
  EXPECT_EQ(ResponseExitCode(*response), 3);
  EXPECT_EQ(response->Get("run-status"), "deadline-exceeded");
  // Best-so-far payload is still a loadable model.
  EXPECT_TRUE(ParseHypothesis(response->Get("model")).ok());
}

TEST_F(ServerTest, WorkBudgetPartialIsDeterministic) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(30, 17);
  // Periodic labels admit no zero-error hypothesis, so the budget trips
  // mid-scan rather than early-stopping.
  TrainingSet hard;
  for (Vertex v = 0; v < 30; ++v) hard.push_back({{v}, v % 7 < 3});
  const std::string hard_text = TrainingSetToText(hard);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", hard_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  learn.Set("ell", "1");
  learn.Set("max-work", "40");
  StatusOr<Message> first = client.Call(learn);
  StatusOr<Message> second = client.Call(learn);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->Get("status"), kStatusPartial);
  EXPECT_EQ(first->Get("run-status"), "budget-exhausted");
  EXPECT_EQ(first->Get("model"), second->Get("model"));
  EXPECT_EQ(first->Get("work-used"), second->Get("work-used"));
}

TEST_F(ServerTest, MalformedInputsGetSysexitsStyleCodes) {
  StartServer(ServerOptions{});
  Client client = MustConnect();

  Message bad_graph;
  bad_graph.Set("op", "load-graph");
  bad_graph.Set("graph", "graph zz\n");
  StatusOr<Message> response = client.Call(bad_graph);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("status"), kStatusError);
  EXPECT_EQ(ResponseExitCode(*response), 65);

  Message unknown_op;
  unknown_op.Set("op", "frobnicate");
  response = client.Call(unknown_op);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);

  Message unknown_session;
  unknown_session.Set("op", "learn");
  unknown_session.Set("session", "999");
  unknown_session.Set("data", "examples 1\n+ 0\n");
  response = client.Call(unknown_session);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);

  // A vertex outside the session graph must be an error, not a CHECK.
  TestProblem problem = MakeProblem(10, 19);
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message out_of_range;
  out_of_range.Set("op", "learn");
  out_of_range.Set("session", std::to_string(*session));
  out_of_range.Set("data", "examples 1\n+ 5000\n");
  response = client.Call(out_of_range);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("status"), kStatusError);
  EXPECT_EQ(ResponseExitCode(*response), 65);

  // Malformed numeric fields mirror the CLI's exit-64 flag audit.
  Message bad_field;
  bad_field.Set("op", "learn");
  bad_field.Set("session", std::to_string(*session));
  bad_field.Set("data", problem.data_text);
  bad_field.Set("rank", "4x");
  response = client.Call(bad_field);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);

  // A query with a free variable is rejected, not CHECK-failed.
  Message open_query;
  open_query.Set("op", "query");
  open_query.Set("session", std::to_string(*session));
  open_query.Set("sentence", "Red(x)");
  response = client.Call(open_query);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 65);

  // Session ids are strict decimal on every op: session 5 exists, yet a
  // padded, signed or wrapping spelling of an id never reaches it.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.LoadGraph(problem.graph_text).ok());
  }
  for (const std::string raw : {" 5", "+5", "-1"}) {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", raw);
    learn.Set("data", problem.data_text);
    response = client.Call(learn);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(ResponseExitCode(*response), 64) << raw;
    EXPECT_EQ(response->Get("error"), "invalid session id '" + raw + "'");
  }
  Message heartbeat;
  heartbeat.Set("op", "ping");
  heartbeat.Set("session", "5");
  response = client.Call(heartbeat);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("session-known"), "1");
  heartbeat.Set("session", " 5");
  response = client.Call(heartbeat);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("session-known"), "0");
}

TEST(ProtocolTest, SocketPathValidation) {
  EXPECT_FALSE(ValidateSocketPath("").ok());
  EXPECT_TRUE(ValidateSocketPath("/tmp/ok.sock").ok());
  const std::string long_path = "/tmp/" + std::string(200, 'x') + ".sock";
  Status status = ValidateSocketPath(long_path);
  ASSERT_FALSE(status.ok());
  // The tool binaries translate this into their exit-64 flag audit.
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  // The client refuses the same paths before touching the socket layer.
  EXPECT_EQ(Client::Connect(long_path).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, ModelHandleRoundTrip) {
  StartServer(ServerOptions{});
  TestProblem problem = MakeProblem(30, 23);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());

  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> learned = client.Call(learn);
  ASSERT_TRUE(learned.ok());
  ASSERT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");
  const std::string model_id = learned->Get("model-id");
  ASSERT_FALSE(model_id.empty());

  // get-model returns the registered model byte-identically.
  Message get;
  get.Set("op", "get-model");
  get.Set("session", std::to_string(*session));
  get.Set("model-id", model_id);
  StatusOr<Message> fetched = client.Call(get);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->Get("status"), kStatusOk) << fetched->Get("error");
  EXPECT_EQ(fetched->Get("model"), learned->Get("model"));

  // Repeating the identical learn reuses the handle: no second model.
  StatusOr<Message> again = client.Call(learn);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Get("model-id"), model_id);
  Message list;
  list.Set("op", "list-models");
  list.Set("session", std::to_string(*session));
  StatusOr<Message> listed = client.Call(list);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->Get("count"), "1");
  EXPECT_EQ(listed->Get("models"), model_id);

  // evaluate by handle == evaluate by shipped text.
  Message eval_text;
  eval_text.Set("op", "evaluate");
  eval_text.Set("session", std::to_string(*session));
  eval_text.Set("model", learned->Get("model"));
  eval_text.Set("data", problem.data_text);
  StatusOr<Message> by_text = client.Call(eval_text);
  ASSERT_TRUE(by_text.ok());
  ASSERT_EQ(by_text->Get("status"), kStatusOk) << by_text->Get("error");
  Message eval_handle;
  eval_handle.Set("op", "evaluate");
  eval_handle.Set("session", std::to_string(*session));
  eval_handle.Set("model-id", model_id);
  eval_handle.Set("data", problem.data_text);
  StatusOr<Message> by_handle = client.Call(eval_handle);
  ASSERT_TRUE(by_handle.ok());
  ASSERT_EQ(by_handle->Get("status"), kStatusOk) << by_handle->Get("error");
  EXPECT_EQ(by_handle->Get("error"), by_text->Get("error"));
  EXPECT_EQ(by_handle->Get("examples-seen"), by_text->Get("examples-seen"));

  // query by handle classifies tuples like the evaluated model.
  StatusOr<Hypothesis> hypothesis =
      ParseHypothesis(learned->Get("model"));
  ASSERT_TRUE(hypothesis.ok());
  for (Vertex v : {Vertex{0}, Vertex{1}, Vertex{2}}) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*session));
    query.Set("model-id", model_id);
    query.Set("tuple", std::to_string(v));
    StatusOr<Message> answered = client.Call(query);
    ASSERT_TRUE(answered.ok());
    ASSERT_EQ(answered->Get("status"), kStatusOk) << answered->Get("error");
    // Training error was 0, so the model agrees with the labels.
    EXPECT_EQ(answered->Get("result"),
              problem.data[v].label ? "true" : "false");
  }

  // Handle misuse: unknown ids and ambiguous forms are usage errors.
  Message unknown;
  unknown.Set("op", "evaluate");
  unknown.Set("session", std::to_string(*session));
  unknown.Set("model-id", "999");
  unknown.Set("data", problem.data_text);
  StatusOr<Message> response = client.Call(unknown);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);
  Message ambiguous;
  ambiguous.Set("op", "evaluate");
  ambiguous.Set("session", std::to_string(*session));
  ambiguous.Set("model", learned->Get("model"));
  ambiguous.Set("model-id", model_id);
  ambiguous.Set("data", problem.data_text);
  response = client.Call(ambiguous);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);
}

TEST_F(ServerTest, DurableSessionsSurviveRestartByteIdentically) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  StartServer(options);
  TestProblem problem = MakeProblem(30, 29);
  std::string model_text;
  std::string model_id;
  std::string eval_error;
  uint64_t session_id = 0;
  {
    Client client = MustConnect();
    StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
    ASSERT_TRUE(session.ok());
    session_id = *session;
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(session_id));
    learn.Set("data", problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "1");
    learn.Set("request-id", "learn-once");
    StatusOr<Message> learned = client.Call(learn);
    ASSERT_TRUE(learned.ok());
    ASSERT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");
    EXPECT_FALSE(learned->Has("deduped"));
    model_text = learned->Get("model");
    model_id = learned->Get("model-id");
    Message evaluate;
    evaluate.Set("op", "evaluate");
    evaluate.Set("session", std::to_string(session_id));
    evaluate.Set("model-id", model_id);
    evaluate.Set("data", problem.data_text);
    StatusOr<Message> evaluated = client.Call(evaluate);
    ASSERT_TRUE(evaluated.ok());
    eval_error = evaluated->Get("error");
  }

  RestartServer();
  ServerStats stats = server_->Snapshot();
  EXPECT_EQ(stats.sessions_recovered, 1);

  Client client = MustConnect();
  // The recovered session serves the model byte-identically, through the
  // handle and through get-model, after a lazy re-warm.
  Message get;
  get.Set("op", "get-model");
  get.Set("session", std::to_string(session_id));
  get.Set("model-id", model_id);
  StatusOr<Message> fetched = client.Call(get);
  ASSERT_TRUE(fetched.ok());
  ASSERT_EQ(fetched->Get("status"), kStatusOk) << fetched->Get("error");
  EXPECT_EQ(fetched->Get("model"), model_text);
  Message evaluate;
  evaluate.Set("op", "evaluate");
  evaluate.Set("session", std::to_string(session_id));
  evaluate.Set("model-id", model_id);
  evaluate.Set("data", problem.data_text);
  StatusOr<Message> evaluated = client.Call(evaluate);
  ASSERT_TRUE(evaluated.ok());
  ASSERT_EQ(evaluated->Get("status"), kStatusOk) << evaluated->Get("error");
  EXPECT_EQ(evaluated->Get("error"), eval_error);
  stats = server_->Snapshot();
  EXPECT_EQ(stats.sessions_rewarmed, 1);

  // The dedup window also survived: the same request-id replays the
  // acknowledged response instead of learning again.
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(session_id));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  learn.Set("request-id", "learn-once");
  StatusOr<Message> replayed = client.Call(learn);
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->Get("deduped"), "1");
  EXPECT_EQ(replayed->Get("model"), model_text);
  EXPECT_EQ(replayed->Get("model-id"), model_id);
  EXPECT_EQ(server_->Snapshot().dedup_hits, 1);

  // New sessions never reuse a recovered id.
  StatusOr<uint64_t> fresh = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT(*fresh, session_id);

  // close-session removes the journal: another restart forgets it.
  ASSERT_TRUE(client.CloseSession(session_id).ok());
  RestartServer();
  Client after = MustConnect();
  Message gone;
  gone.Set("op", "get-model");
  gone.Set("session", std::to_string(session_id));
  gone.Set("model-id", model_id);
  StatusOr<Message> missing = after.Call(gone);
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(ResponseExitCode(*missing), 64);
}

TEST_F(ServerTest, FileBackedSessionSurvivesRestartAndDetectsSwaps) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  StartServer(options);
  TestProblem problem = MakeProblem(40, 30);
  problem.graph.Finalize();
  // The state dir exists once the server started; park the graph file
  // there so teardown sweeps it too.
  const std::string fog_path = options_.state_dir + "/session.fog";
  ASSERT_TRUE(WriteFogFile(fog_path, problem.graph).ok());

  Client client = MustConnect();
  Message load;
  load.Set("op", "load-graph");
  load.Set("graph-file", fog_path);
  StatusOr<Message> loaded = client.Call(load);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->Get("status"), kStatusOk) << loaded->Get("error");
  const std::string session = loaded->Get("session");
  EXPECT_EQ(loaded->Get("order"), "40");

  auto query = [&](Client& c) -> StatusOr<Message> {
    Message request;
    request.Set("op", "query");
    request.Set("session", session);
    request.Set("sentence", "exists x. Red(x)");
    return c.Call(request);
  };
  StatusOr<Message> answer = query(client);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->Get("status"), kStatusOk) << answer->Get("error");
  EXPECT_EQ(answer->Get("result"), "true");

  // Restart: the journal references the file by path + fingerprint, and
  // the re-warm memory-maps it back in.
  RestartServer();
  Client warm = MustConnect();
  StatusOr<Message> after = query(warm);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->Get("status"), kStatusOk) << after->Get("error");
  EXPECT_EQ(after->Get("result"), "true");
  EXPECT_EQ(server_->Snapshot().sessions_rewarmed, 1);

  // Swap the file for a different graph: the next re-warm must refuse
  // with a data-loss error, not silently answer for the wrong graph.
  TestProblem other = MakeProblem(12, 31);
  other.graph.Finalize();
  ASSERT_TRUE(WriteFogFile(fog_path, other.graph).ok());
  RestartServer();
  Client swapped = MustConnect();
  StatusOr<Message> refused = query(swapped);
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(ResponseExitCode(*refused), 65);
  const std::string error = refused->Get("error");
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST_F(ServerTest, DedupWindowIsBounded) {
  ServerOptions options;
  options.dedup_window = 2;
  StartServer(options);
  TestProblem problem = MakeProblem(20, 31);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  auto send = [&](const std::string& rid) {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*session));
    learn.Set("data", problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "1");
    learn.Set("request-id", rid);
    StatusOr<Message> response = client.Call(learn);
    EXPECT_TRUE(response.ok());
    return *std::move(response);
  };
  send("a");
  send("b");
  send("c");  // evicts "a" from the window of 2
  EXPECT_EQ(send("c").Get("deduped"), "1");
  EXPECT_EQ(send("b").Get("deduped"), "1");
  EXPECT_FALSE(send("a").Has("deduped"));  // evicted: runs afresh
}

// A client that vanishes mid-request costs its connection and nothing
// else: the session stays usable and the admission slot is released
// (with max_inflight=1, a leak would shed everything afterwards).
TEST_F(ServerTest, DisconnectMidRequestDropsConnectionOnly) {
  ServerOptions options;
  options.max_inflight = 1;
  StartServer(options);
  TestProblem problem = MakeProblem(20, 37);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());

  // Torn frame: a header promising 100 bytes, then 10, then close.
  for (int i = 0; i < 3; ++i) {
    int fd = RawConnect();
    const unsigned char torn[14] = {100, 0, 0, 0, 'p', 'a', 'r', 't', 'i',
                                    'a', 'l', 'x', 'y', 'z'};
    ASSERT_EQ(::send(fd, torn, sizeof(torn), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(torn)));
    ::close(fd);
  }
  // Full substantive request, then close without reading the response:
  // the server runs it and hits a dead peer on the write.
  for (int i = 0; i < 3; ++i) {
    int fd = RawConnect();
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*session));
    learn.Set("data", problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "1");
    ASSERT_TRUE(WriteFrame(fd, learn).ok());
    ::close(fd);
  }

  // The daemon is unharmed: the session still answers, substantive
  // requests are admitted (no leaked inflight slot), and the torn frames
  // were counted as disconnects.
  bool learned_after_storm = false;
  for (int attempt = 0; attempt < 100 && !learned_after_storm; ++attempt) {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*session));
    learn.Set("data", problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "1");
    StatusOr<Message> response = client.Call(learn);
    ASSERT_TRUE(response.ok()) << response.status().message();
    if (response->Get("status") == kStatusShed) {
      // An abandoned learn may still hold the only slot; give it a beat.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      continue;
    }
    ASSERT_EQ(response->Get("status"), kStatusOk) << response->Get("error");
    learned_after_storm = true;
  }
  EXPECT_TRUE(learned_after_storm) << "inflight slot appears leaked";
  // The torn connections' threads race this snapshot: closing our end of
  // the socket returns before the server thread observes EOF and bumps
  // the counter, so poll until the storm has been fully accounted for.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  ServerStats stats = server_->Snapshot();
  while (stats.disconnects < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = server_->Snapshot();
  }
  EXPECT_GE(stats.disconnects, 3);
  EXPECT_EQ(stats.sessions_closed, 0);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, IdleTtlEvictsAndJournaledSessionsRewarm) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  options.session_ttl_ms = 50;
  StartServer(options);
  TestProblem problem = MakeProblem(20, 41);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> learned = client.Call(learn);
  ASSERT_TRUE(learned.ok());
  ASSERT_EQ(learned->Get("status"), kStatusOk);

  // Idle well past the TTL: the sweeper demotes the session to cold.
  for (int i = 0; i < 100 && server_->Snapshot().sessions_evicted == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server_->Snapshot().sessions_evicted, 1);

  // The evicted session transparently re-warms on next use, with the
  // model handle intact.
  Message evaluate;
  evaluate.Set("op", "evaluate");
  evaluate.Set("session", std::to_string(*session));
  evaluate.Set("model-id", learned->Get("model-id"));
  evaluate.Set("data", problem.data_text);
  StatusOr<Message> evaluated = client.Call(evaluate);
  ASSERT_TRUE(evaluated.ok());
  ASSERT_EQ(evaluated->Get("status"), kStatusOk) << evaluated->Get("error");
  EXPECT_GE(server_->Snapshot().sessions_rewarmed, 1);
}

TEST_F(ServerTest, IdleTtlClosesMemoryOnlySessions) {
  ServerOptions options;
  options.session_ttl_ms = 50;  // no state dir: eviction is closure
  StartServer(options);
  TestProblem problem = MakeProblem(15, 43);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 100 && server_->Snapshot().sessions_evicted == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server_->Snapshot().sessions_evicted, 1);
  Message query;
  query.Set("op", "query");
  query.Set("session", std::to_string(*session));
  query.Set("sentence", "exists x. Red(x)");
  StatusOr<Message> response = client.Call(query);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 64);  // unknown session now
}

TEST_F(ServerTest, HeartbeatKeepsIdleSessionAlive) {
  ServerOptions options;
  // Generous TTL: under parallel ctest load a 100ms sleep can stretch far
  // past its nominal duration, and the session must still look fresh.
  options.session_ttl_ms = 5000;
  StartServer(options);
  TestProblem problem = MakeProblem(15, 47);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  // Heartbeats at a fraction of the TTL hold the session in memory.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    Message ping;
    ping.Set("op", "ping");
    ping.Set("session", std::to_string(*session));
    StatusOr<Message> response = client.Call(ping);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->Get("session-known"), "1");
  }
  EXPECT_EQ(server_->Snapshot().sessions_evicted, 0);
  Message ping;
  ping.Set("op", "ping");
  ping.Set("session", "12345");
  StatusOr<Message> response = client.Call(ping);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("session-known"), "0");
}

TEST_F(ServerTest, RetryingClientRidesThroughShed) {
  ServerOptions options;
  options.max_inflight = 1;
  StartServer(options);
  TestProblem slow_problem = MakeProblem(120, 53);
  for (Vertex v = 0; v < 120; ++v) {
    slow_problem.data[v].label = v % 7 < 3;
  }
  slow_problem.data_text = TrainingSetToText(slow_problem.data);
  Client slow_client = MustConnect();
  StatusOr<uint64_t> slow_session =
      slow_client.LoadGraph(slow_problem.graph_text);
  ASSERT_TRUE(slow_session.ok());

  TestProblem quick_problem = MakeProblem(10, 54);
  Client setup = MustConnect();
  StatusOr<uint64_t> quick_session =
      setup.LoadGraph(quick_problem.graph_text);
  ASSERT_TRUE(quick_session.ok());

  std::thread slow_thread([&] {
    Message learn;
    learn.Set("op", "learn");
    learn.Set("session", std::to_string(*slow_session));
    learn.Set("data", slow_problem.data_text);
    learn.Set("rank", "1");
    learn.Set("radius", "2");
    learn.Set("ell", "1");
    EXPECT_TRUE(slow_client.Call(learn).ok());
  });

  RetryPolicy policy;
  policy.max_retries = 200;
  policy.backoff_ms = 2;
  policy.max_backoff_ms = 20;
  RetryingClient retrying(server_->socket_path(), policy);
  // Substantive requests keep succeeding against the saturated server —
  // sheds are absorbed by the retry loop, never surfaced.
  for (int i = 0; i < 10; ++i) {
    Message query;
    query.Set("op", "query");
    query.Set("session", std::to_string(*quick_session));
    query.Set("sentence", "exists x. Red(x)");
    StatusOr<Message> response = retrying.Call(query);
    ASSERT_TRUE(response.ok()) << response.status().message();
    ASSERT_EQ(response->Get("status"), kStatusOk) << response->Get("error");
    EXPECT_EQ(response->Get("result"), "true");
  }
  slow_thread.join();

  // Terminal responses surface immediately: no retry budget is burned on
  // a request that is itself at fault.
  Message bad;
  bad.Set("op", "query");
  bad.Set("session", std::to_string(*quick_session));
  bad.Set("sentence", "Red(x)");  // free variable: data error
  StatusOr<Message> response = retrying.Call(bad);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(ResponseExitCode(*response), 65);
  EXPECT_EQ(retrying.last_attempts(), 1);
}

TEST_F(ServerTest, RetryingClientReconnectsAcrossRestart) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  StartServer(options);
  TestProblem problem = MakeProblem(20, 59);
  Client setup = MustConnect();
  StatusOr<uint64_t> session = setup.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());

  RetryPolicy policy;
  policy.max_retries = 100;
  policy.backoff_ms = 5;
  policy.max_backoff_ms = 50;
  RetryingClient retrying(server_->socket_path(), policy);
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  learn.Set("request-id", "across-restart");
  StatusOr<Message> first = retrying.Call(learn);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->Get("status"), kStatusOk) << first->Get("error");

  // Kill the daemon; re-issue the same request while a restart lands.
  server_->Shutdown();
  serve_thread_.join();
  std::thread restarter([this] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    server_ = std::make_unique<Server>(ServerOptions(options_));
    ASSERT_TRUE(server_->Start().ok());
    serve_thread_ = std::thread([this] { server_->Serve(); });
  });
  StatusOr<Message> second = retrying.Call(learn);
  restarter.join();
  ASSERT_TRUE(second.ok()) << second.status().message();
  ASSERT_EQ(second->Get("status"), kStatusOk) << second->Get("error");
  EXPECT_GT(retrying.last_attempts(), 1);
  // The journaled dedup window made the cross-restart retry idempotent.
  EXPECT_EQ(second->Get("deduped"), "1");
  EXPECT_EQ(second->Get("model"), first->Get("model"));
  EXPECT_EQ(second->Get("model-id"), first->Get("model-id"));
}

// ---------------------------------------------------------------------
// Memory governance: pressure-tier gating, per-session budgets, journal
// compaction, and the stats surface. Tiers are pinned with force_tier so
// every behaviour here is deterministic.

TEST_F(ServerTest, BlackTierShedsSubstantiveButServesHeartbeats) {
  ServerOptions options;
  options.force_tier = static_cast<int>(PressureTier::kBlack);
  StartServer(std::move(options));
  Client client = MustConnect();
  // The ops that observe or relieve the pressure stay admitted.
  ASSERT_TRUE(client.Ping().ok());
  Message stats;
  stats.Set("op", "stats");
  StatusOr<Message> observed = client.Call(stats);
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(observed->Get("status"), kStatusOk);
  EXPECT_EQ(observed->Get("mem-tier"), "black");
  // Every substantive request is shed retry-safe with the temp-fail code.
  TestProblem problem = MakeProblem(10, 41);
  Message load;
  load.Set("op", "load-graph");
  load.Set("graph", problem.graph_text);
  StatusOr<Message> shed = client.Call(load);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->Get("status"), kStatusShed);
  EXPECT_EQ(shed->Get("code"), "75");
  EXPECT_EQ(shed->Get("tier"), "black");
  EXPECT_TRUE(IsRetryableResponse(*shed));
  EXPECT_EQ(ResponseExitCode(*shed), 3);
  EXPECT_GE(server_->Snapshot().mem_shed, 1);
  // Shedding is stateless: the daemon still answers after it.
  ASSERT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, YellowTierShedsHeapGraphsButAdmitsMmapPacks) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  options.force_tier = static_cast<int>(PressureTier::kYellow);
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(24, 42);
  problem.graph.Finalize();
  const std::string fog_path = options_.state_dir + "/pressure.fog";
  ASSERT_TRUE(WriteFogFile(fog_path, problem.graph).ok());

  Client client = MustConnect();
  // Inline text would become a heap-resident parse: shed retry-safe.
  Message inline_load;
  inline_load.Set("op", "load-graph");
  inline_load.Set("graph", problem.graph_text);
  StatusOr<Message> shed = client.Call(inline_load);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->Get("status"), kStatusShed);
  EXPECT_EQ(shed->Get("tier"), "yellow");
  // The .fog pack is memory-mapped — reclaimable pages — so it loads.
  Message pack_load;
  pack_load.Set("op", "load-graph");
  pack_load.Set("graph-file", fog_path);
  StatusOr<Message> loaded = client.Call(pack_load);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->Get("status"), kStatusOk) << loaded->Get("error");
  const std::string session = loaded->Get("session");
  // And the admitted session serves substantive work under yellow.
  Message query;
  query.Set("op", "query");
  query.Set("session", session);
  query.Set("sentence", "exists x. Red(x)");
  StatusOr<Message> answer = client.Call(query);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->Get("status"), kStatusOk) << answer->Get("error");
  EXPECT_EQ(answer->Get("result"), "true");
}

TEST_F(ServerTest, RedTierEvictsIdleWarmStateAndRewarmsOnUse) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  options.force_tier = static_cast<int>(PressureTier::kRed);
  options.mem_watchdog_ms = 10;
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(24, 43);
  problem.graph.Finalize();
  const std::string fog_path = options_.state_dir + "/red.fog";
  ASSERT_TRUE(WriteFogFile(fog_path, problem.graph).ok());

  Client client = MustConnect();
  Message load;
  load.Set("op", "load-graph");
  load.Set("graph-file", fog_path);
  StatusOr<Message> loaded = client.Call(load);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->Get("status"), kStatusOk) << loaded->Get("error");
  const std::string session = loaded->Get("session");

  auto query = [&]() -> StatusOr<Message> {
    Message request;
    request.Set("op", "query");
    request.Set("session", session);
    request.Set("sentence", "exists x. Red(x)");
    return client.Call(request);
  };
  StatusOr<Message> warm = query();
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->Get("status"), kStatusOk) << warm->Get("error");

  // The watchdog sweeps the now-idle journaled session back to cold.
  ServerStats snapshot;
  for (int i = 0; i < 200; ++i) {
    snapshot = server_->Snapshot();
    if (snapshot.warm_evictions >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(snapshot.warm_evictions, 1) << "red tier never demoted the "
                                           "idle journaled session";

  // Demotion, not loss: the next request lazily re-warms and answers
  // identically.
  StatusOr<Message> rewarmed = query();
  ASSERT_TRUE(rewarmed.ok());
  ASSERT_EQ(rewarmed->Get("status"), kStatusOk) << rewarmed->Get("error");
  EXPECT_EQ(rewarmed->Get("result"), warm->Get("result"));
}

TEST_F(ServerTest, SessionMemBudgetCutsLearnToGovernedPartial) {
  ServerOptions options;
  // A cap no session stays under: the graph text's forced charge alone
  // overshoots it, so the learn's governor cuts at its first probe.
  options.session_mem_bytes = 64;
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(30, 44);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok()) << session.status().message();
  Message learn;
  learn.Set("op", "learn");
  learn.Set("session", std::to_string(*session));
  learn.Set("data", problem.data_text);
  learn.Set("rank", "1");
  learn.Set("radius", "1");
  StatusOr<Message> cut = client.Call(learn);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->Get("status"), kStatusPartial) << cut->Get("error");
  EXPECT_EQ(cut->Get("run-status"), "resource-exhausted");
  EXPECT_EQ(ResponseExitCode(*cut), 3);
  // Governed, not broken: the session keeps serving.
  ASSERT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, JournalCompactionDropsOldestModelsAndSurvivesRestart) {
  ServerOptions options;
  options.state_dir = MakeStateDir();
  options.max_session_models = 2;
  StartServer(options);
  TestProblem problem = MakeProblem(24, 45);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());

  // Identical model text reuses its handle, so distinct labelings are
  // needed to actually grow the model table past the cap.
  auto relabel = [&](int mode) {
    TrainingSet data = problem.data;
    for (size_t i = 0; i < data.size(); ++i) {
      data[i].label = mode == 0   ? data[i].label
                      : mode == 1 ? true
                                  : false;
    }
    return TrainingSetToText(data);
  };
  auto learn = [&](const std::string& request_id,
                   const std::string& data_text) -> std::string {
    Message request;
    request.Set("op", "learn");
    request.Set("session", std::to_string(*session));
    request.Set("data", data_text);
    request.Set("rank", "1");
    request.Set("radius", "1");
    request.Set("request-id", request_id);
    StatusOr<Message> learned = client.Call(request);
    EXPECT_TRUE(learned.ok());
    EXPECT_EQ(learned->Get("status"), kStatusOk) << learned->Get("error");
    return learned->Get("model-id");
  };
  const std::string first = learn("compact-1", relabel(0));
  const std::string second = learn("compact-2", relabel(1));
  const std::string third = learn("compact-3", relabel(2));
  ASSERT_NE(first, second);
  ASSERT_NE(second, third);
  ASSERT_NE(first, third);

  auto get_model = [&](Client& c, const std::string& id) -> StatusOr<Message> {
    Message request;
    request.Set("op", "get-model");
    request.Set("session", std::to_string(*session));
    request.Set("model-id", id);
    return c.Call(request);
  };
  // The cap is 2: the third learn compacted the oldest handle away.
  StatusOr<Message> dropped = get_model(client, first);
  ASSERT_TRUE(dropped.ok());
  EXPECT_NE(dropped->Get("status"), kStatusOk);
  StatusOr<Message> kept = get_model(client, third);
  ASSERT_TRUE(kept.ok());
  ASSERT_EQ(kept->Get("status"), kStatusOk) << kept->Get("error");
  const std::string third_text = kept->Get("model");
  ServerStats stats = server_->Snapshot();
  EXPECT_GE(stats.models_compacted, 1);
  EXPECT_GE(stats.journal_compactions, 1);

  // The compacted journal is what restarts recover: the dropped handle
  // stays dropped, the survivors stay byte-identical.
  RestartServer();
  Client recovered = MustConnect();
  StatusOr<Message> still_dropped = get_model(recovered, first);
  ASSERT_TRUE(still_dropped.ok());
  EXPECT_NE(still_dropped->Get("status"), kStatusOk);
  StatusOr<Message> still_kept = get_model(recovered, third);
  ASSERT_TRUE(still_kept.ok());
  ASSERT_EQ(still_kept->Get("status"), kStatusOk)
      << still_kept->Get("error");
  EXPECT_EQ(still_kept->Get("model"), third_text);
  (void)second;
}

TEST_F(ServerTest, StatsExposeMemoryGovernanceGauges) {
  ServerOptions options;
  options.mem_budget_bytes = int64_t{4} << 30;  // roomy: stays green
  options.mem_watchdog_ms = 10;
  StartServer(std::move(options));
  TestProblem problem = MakeProblem(20, 46);
  Client client = MustConnect();
  StatusOr<uint64_t> session = client.LoadGraph(problem.graph_text);
  ASSERT_TRUE(session.ok());
  Message stats;
  stats.Set("op", "stats");
  StatusOr<Message> observed = client.Call(stats);
  ASSERT_TRUE(observed.ok());
  ASSERT_EQ(observed->Get("status"), kStatusOk);
  EXPECT_EQ(observed->Get("mem-tier"), "green");
  EXPECT_EQ(observed->Get("mem-budget-bytes"),
            std::to_string(int64_t{4} << 30));
  // The loaded graph's forced charge is visible in the accounted gauge.
  EXPECT_GT(std::stoll(observed->Get("mem-used-bytes")), 0);
  EXPECT_GT(std::stoll(observed->Get("mem-peak-bytes")), 0);
  EXPECT_GT(std::stoll(observed->Get("rss-bytes")), 0);
  EXPECT_EQ(observed->Get("mem-shed"), "0");
}

// ---------------------------------------------------------------------
// Golden wire transcript: the exact response to every op × {valid;
// each required field missing; each numeric or id field malformed;
// unknown session; unknown model-id; doubly malformed requests that pin
// which error a handler reports first}, under tiers green, yellow and
// black (pinned with force_tier). Compared case by case against
// tests/data/server_golden.txt; run with FOLEARN_UPDATE_GOLDEN=1 to
// rewrite that file after a deliberate protocol change.

// Keys whose values vary run to run; the transcript records them as '*'.
constexpr const char* kGoldenMaskedKeys[] = {
    "exec-ms", "lower-ms", "rss-bytes", "mem-used-bytes", "mem-peak-bytes"};

std::string EscapeGolden(const std::string& value) {
  std::string out;
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out += c;
    }
  }
  return out;
}

// The status/code pair of every response must agree with the client's
// exit-code mapping.
void ExpectConsistentStatus(const std::string& name, const Message& response) {
  const std::string status = response.Get("status");
  const std::string code = response.Get("code");
  const int exit_code = ResponseExitCode(response);
  if (status == kStatusOk) {
    EXPECT_EQ(code, "0") << name;
    EXPECT_EQ(exit_code, 0) << name;
  } else if (status == kStatusPartial) {
    EXPECT_EQ(code, "3") << name;
    EXPECT_EQ(exit_code, 3) << name;
  } else if (status == kStatusShed) {
    EXPECT_TRUE(code == "3" || code == "75") << name << ": code " << code;
    EXPECT_EQ(exit_code, 3) << name;
  } else {
    EXPECT_EQ(status, kStatusError) << name;
    EXPECT_EQ(std::to_string(exit_code), code) << name;
    EXPECT_GT(exit_code, 0) << name;
  }
}

using Fields = std::vector<std::pair<std::string, std::string>>;

class GoldenTranscript {
 public:
  GoldenTranscript(Client* client, std::string tier)
      : client_(client), tier_(std::move(tier)) {}

  // Sends one request and appends its (masked) response to the
  // transcript; returns the unmasked response.
  Message Run(const std::string& name, const Fields& fields) {
    Message request;
    for (const auto& [key, value] : fields) request.Set(key, value);
    StatusOr<Message> response = client_->Call(request);
    EXPECT_TRUE(response.ok()) << name << ": " << response.status().message();
    if (!response.ok()) return Message{};
    ExpectConsistentStatus(tier_ + " " + name, *response);
    text_ += "== " + tier_ + " " + name + "\n";
    for (const auto& [key, value] : response->fields) {
      bool masked = false;
      for (const char* mask : kGoldenMaskedKeys) masked |= key == mask;
      text_ += key + "=" + (masked ? "*" : EscapeGolden(value)) + "\n";
    }
    return *std::move(response);
  }

  const std::string& text() const { return text_; }

 private:
  Client* client_;
  std::string tier_;
  std::string text_;
};

// `base` with `key` set to `value` (appended, or overwritten in place).
Fields With(Fields base, const std::string& key, const std::string& value) {
  for (auto& field : base) {
    if (field.first == key) {
      field.second = value;
      return base;
    }
  }
  base.emplace_back(key, value);
  return base;
}

Fields Without(Fields base, const std::string& key) {
  std::erase_if(base, [&](const auto& field) { return field.first == key; });
  return base;
}

// The whole corpus against one server; session and model ids are those
// the server hands out, so a fresh server yields a deterministic script.
void RunGoldenCorpus(GoldenTranscript& t, const TestProblem& problem,
                     const std::string& fog_path) {
  // ---- unknown op / ping
  t.Run("unknown-op", {{"op", "frobnicate"}});
  t.Run("no-op", {{"payload", "x"}});
  t.Run("ping.valid", {{"op", "ping"}, {"payload", "hello"}});
  t.Run("ping.no-payload", {{"op", "ping"}});
  t.Run("ping.session-unknown", {{"op", "ping"}, {"session", "999"}});
  t.Run("ping.session-malformed", {{"op", "ping"}, {"session", "x"}});
  t.Run("ping.unknown-field", {{"op", "ping"}, {"frob", "1"}});

  // ---- load-graph
  std::string session = "1";  // unknown when every load is shed (black)
  Message text_load =
      t.Run("load-graph.valid",
            {{"op", "load-graph"}, {"graph", problem.graph_text}});
  Message fog_load = t.Run("load-graph.fog-file",
                           {{"op", "load-graph"}, {"graph-file", fog_path}});
  if (text_load.Get("status") == kStatusOk) {
    session = text_load.Get("session");
  } else if (fog_load.Get("status") == kStatusOk) {
    session = fog_load.Get("session");
  }
  t.Run("load-graph.missing", {{"op", "load-graph"}});
  t.Run("load-graph.both", {{"op", "load-graph"},
                            {"graph", problem.graph_text},
                            {"graph-file", fog_path}});
  t.Run("load-graph.bad-graph",
        {{"op", "load-graph"}, {"graph", "graph zz\n"}});
  t.Run("load-graph.missing-file",
        {{"op", "load-graph"}, {"graph-file", "no-such-dir/missing.txt"}});
  t.Run("ping.session-known", {{"op", "ping"}, {"session", session}});

  // ---- learn
  const Fields learn = {{"op", "learn"},
                       {"session", session},
                       {"data", problem.data_text},
                       {"rank", "1"},
                       {"radius", "1"}};
  Message learned = t.Run("learn.valid", learn);
  t.Run("learn.valid-repeat", learn);
  t.Run("learn.request-id", With(learn, "request-id", "r1"));
  t.Run("learn.request-id-replay", With(learn, "request-id", "r1"));
  t.Run("learn.governed", With(learn, "max-work", "100000000"));
  // Periodic labels admit no zero-error hypothesis, so the budget trips.
  TrainingSet hard;
  for (Vertex v = 0; v < problem.graph.order(); ++v) {
    hard.push_back({{v}, v % 7 < 3});
  }
  t.Run("learn.governed-partial",
        With(With(With(learn, "data", TrainingSetToText(hard)), "ell", "1"),
             "max-work", "40"));
  t.Run("learn.deadline", With(learn, "deadline-ms", "600000"));
  t.Run("learn.no-session", Without(learn, "session"));
  t.Run("learn.bad-session", With(learn, "session", "abc"));
  t.Run("learn.unknown-session", With(learn, "session", "999"));
  t.Run("learn.no-data", Without(learn, "data"));
  t.Run("learn.bad-data", With(learn, "data", "examples zz\n"));
  t.Run("learn.vertex-out-of-range",
        With(learn, "data", "examples 1\n+ 5000\n"));
  t.Run("learn.bad-rank", With(learn, "rank", "4x"));
  t.Run("learn.bad-radius", With(learn, "radius", "r"));
  t.Run("learn.bad-ell", With(learn, "ell", "1.5"));
  t.Run("learn.bad-threads", With(learn, "threads", "t"));
  t.Run("learn.rank-overflow", With(learn, "rank", "99999999999"));
  t.Run("learn.negative-rank", With(learn, "rank", "-1"));
  t.Run("learn.negative-radius", With(learn, "radius", "-2"));
  t.Run("learn.negative-ell", With(learn, "ell", "-1"));
  t.Run("learn.negative-threads", With(learn, "threads", "-1"));
  t.Run("learn.bad-learner", With(learn, "learner", "nd"));
  t.Run("learn.bad-deadline", With(learn, "deadline-ms", "soon"));
  t.Run("learn.negative-deadline", With(learn, "deadline-ms", "-5"));
  t.Run("learn.bad-max-work", With(learn, "max-work", "x"));
  t.Run("learn.zero-max-work", With(learn, "max-work", "0"));
  t.Run("learn.long-request-id",
        With(learn, "request-id", std::string(257, 'a')));
  t.Run("learn.no-session+no-data",
        Without(Without(learn, "session"), "data"));
  t.Run("learn.bad-session+bad-rank",
        With(With(learn, "session", "abc"), "rank", "x"));
  t.Run("learn.unknown-session+no-data",
        Without(With(learn, "session", "999"), "data"));
  t.Run("learn.bad-rank+bad-data",
        With(With(learn, "rank", "x"), "data", "examples zz\n"));
  t.Run("learn.bad-rank+bad-radius",
        With(With(learn, "rank", "x"), "radius", "y"));
  t.Run("learn.negative-rank+bad-ell",
        With(With(learn, "rank", "-1"), "ell", "e"));
  t.Run("learn.bad-learner+bad-max-work",
        With(With(learn, "learner", "nd"), "max-work", "x"));
  t.Run("learn.bad-max-work+vertex-out-of-range",
        With(With(learn, "max-work", "x"), "data", "examples 1\n+ 5000\n"));
  t.Run("learn.long-request-id+bad-data",
        With(With(learn, "request-id", std::string(257, 'a')), "data",
             "examples zz\n"));

  // ---- evaluate
  const std::string model_id = "1";
  const Fields evaluate = {{"op", "evaluate"},
                           {"session", session},
                           {"model-id", model_id},
                           {"data", problem.data_text}};
  const Fields evaluate_text =
      With(Without(evaluate, "model-id"), "model", learned.Get("model"));
  t.Run("evaluate.by-handle", evaluate);
  t.Run("evaluate.by-text", evaluate_text);
  t.Run("evaluate.governed", With(evaluate, "max-work", "100000000"));
  t.Run("evaluate.governed-partial", With(evaluate, "max-work", "1"));
  t.Run("evaluate.by-text-governed-partial",
        With(evaluate_text, "max-work", "1"));
  t.Run("evaluate.no-session", Without(evaluate, "session"));
  t.Run("evaluate.bad-session", With(evaluate, "session", "abc"));
  t.Run("evaluate.unknown-session", With(evaluate, "session", "999"));
  t.Run("evaluate.no-model", Without(evaluate, "model-id"));
  t.Run("evaluate.both-models", With(evaluate, "model", learned.Get("model")));
  t.Run("evaluate.no-data", Without(evaluate, "data"));
  t.Run("evaluate.bad-model-id", With(evaluate, "model-id", "x"));
  t.Run("evaluate.signed-model-id", With(evaluate, "model-id", "+1"));
  t.Run("evaluate.unknown-model-id", With(evaluate, "model-id", "99"));
  t.Run("evaluate.bad-model-text", With(evaluate_text, "model", "garbage"));
  t.Run("evaluate.bad-data", With(evaluate, "data", "examples zz\n"));
  t.Run("evaluate.vertex-out-of-range",
        With(evaluate, "data", "examples 1\n+ 5000\n"));
  t.Run("evaluate.arity-mismatch",
        With(evaluate, "data", "examples 2\n+ 0 1\n"));
  t.Run("evaluate.bad-deadline", With(evaluate, "deadline-ms", "soon"));
  t.Run("evaluate.bad-max-work", With(evaluate, "max-work", "x"));
  t.Run("evaluate.no-model+no-data",
        Without(Without(evaluate, "model-id"), "data"));
  t.Run("evaluate.bad-model-id+no-data",
        Without(With(evaluate, "model-id", "x"), "data"));
  t.Run("evaluate.bad-model-id+bad-data",
        With(With(evaluate, "model-id", "x"), "data", "examples zz\n"));
  t.Run("evaluate.bad-data+bad-max-work",
        With(With(evaluate, "data", "examples zz\n"), "max-work", "x"));
  t.Run("evaluate.unknown-model-id+bad-max-work",
        With(With(evaluate, "model-id", "99"), "max-work", "x"));
  t.Run("evaluate.unknown-model-id+vertex-out-of-range",
        With(With(evaluate, "model-id", "99"), "data",
             "examples 1\n+ 5000\n"));
  t.Run("evaluate.unknown-model-id+arity-mismatch",
        With(With(evaluate, "model-id", "99"), "data",
             "examples 2\n+ 0 1\n"));
  t.Run("evaluate.bad-model-text+arity-mismatch",
        With(With(evaluate_text, "model", "garbage"), "data",
             "examples 2\n+ 0 1\n"));

  // ---- query
  const Fields sentence = {{"op", "query"},
                           {"session", session},
                           {"sentence", "exists x. Red(x)"}};
  const Fields handle = {{"op", "query"},
                         {"session", session},
                         {"model-id", model_id},
                         {"tuple", "0"}};
  t.Run("query.sentence-true", sentence);
  t.Run("query.sentence-false", With(sentence, "sentence", "forall x. Red(x)"));
  t.Run("query.sentence-repeat", sentence);
  t.Run("query.sentence-governed", With(sentence, "max-work", "100000000"));
  t.Run("query.sentence-governed-partial",
        With(With(sentence, "sentence",
                  "forall x. forall y. (E(x,y) -> exists z. E(y,z))"),
             "max-work", "1"));
  t.Run("query.handle-true", handle);
  t.Run("query.handle-false", With(handle, "tuple", "1"));
  t.Run("query.handle-tabs", With(handle, "tuple", "\t 3 "));
  t.Run("query.handle-governed", With(handle, "max-work", "100000000"));
  t.Run("query.handle-governed-partial", With(handle, "max-work", "1"));
  t.Run("query.no-session", Without(sentence, "session"));
  t.Run("query.bad-session", With(sentence, "session", "abc"));
  t.Run("query.unknown-session", With(sentence, "session", "999"));
  t.Run("query.neither", Without(sentence, "sentence"));
  t.Run("query.both", With(handle, "sentence", "exists x. Red(x)"));
  t.Run("query.bad-sentence", With(sentence, "sentence", "exists x."));
  t.Run("query.open-sentence", With(sentence, "sentence", "Red(x)"));
  t.Run("query.sentence-bad-deadline", With(sentence, "deadline-ms", "s"));
  t.Run("query.sentence-bad-max-work", With(sentence, "max-work", "x"));
  t.Run("query.bad-model-id", With(handle, "model-id", "x"));
  t.Run("query.unknown-model-id", With(handle, "model-id", "99"));
  t.Run("query.no-tuple", Without(handle, "tuple"));
  t.Run("query.bad-tuple", With(handle, "tuple", "a b"));
  t.Run("query.empty-tuple", With(handle, "tuple", " "));
  t.Run("query.negative-vertex", With(handle, "tuple", "-1"));
  t.Run("query.tuple-arity", With(handle, "tuple", "0 1"));
  t.Run("query.tuple-out-of-range", With(handle, "tuple", "5000"));
  t.Run("query.handle-bad-max-work", With(handle, "max-work", "x"));
  t.Run("query.bad-max-work+bad-sentence",
        With(With(sentence, "max-work", "x"), "sentence", "exists x."));
  t.Run("query.bad-model-id+no-tuple",
        Without(With(handle, "model-id", "x"), "tuple"));
  t.Run("query.no-tuple+bad-max-work",
        With(Without(handle, "tuple"), "max-work", "x"));
  t.Run("query.unknown-model-id+bad-tuple",
        With(With(handle, "model-id", "99"), "tuple", "a"));
  t.Run("query.unknown-model-id+tuple-arity",
        With(With(handle, "model-id", "99"), "tuple", "0 1"));
  t.Run("query.tuple-arity+out-of-range",
        With(handle, "tuple", "5000 5001"));

  // ---- get-model / list-models
  const Fields get_model = {
      {"op", "get-model"}, {"session", session}, {"model-id", model_id}};
  t.Run("get-model.valid", get_model);
  t.Run("get-model.no-session", Without(get_model, "session"));
  t.Run("get-model.bad-session", With(get_model, "session", "abc"));
  t.Run("get-model.unknown-session", With(get_model, "session", "999"));
  t.Run("get-model.no-model-id", Without(get_model, "model-id"));
  t.Run("get-model.bad-model-id", With(get_model, "model-id", "x"));
  t.Run("get-model.unknown-model-id", With(get_model, "model-id", "99"));
  t.Run("get-model.unknown-session+no-model-id",
        Without(With(get_model, "session", "999"), "model-id"));
  const Fields list_models = {{"op", "list-models"}, {"session", session}};
  t.Run("list-models.valid", list_models);
  t.Run("list-models.no-session", Without(list_models, "session"));
  t.Run("list-models.bad-session", With(list_models, "session", "abc"));
  t.Run("list-models.unknown-session", With(list_models, "session", "999"));

  // ---- stats (before the requests below, whose outcome changed when
  // session ids became strictly parsed)
  t.Run("stats.valid", {{"op", "stats"}});

  // ---- malformed session ids: strict decimal only
  t.Run("list-models.space-session", With(list_models, "session", " 5"));
  t.Run("list-models.plus-session",
        With(list_models, "session", "+" + session));
  t.Run("list-models.minus-session", With(list_models, "session", "-1"));
  t.Run("list-models.overflow-session",
        With(list_models, "session", "18446744073709551616"));
  t.Run("learn.space-session", With(learn, "session", " 5"));
  t.Run("ping.space-session", {{"op", "ping"}, {"session", " " + session}});
  t.Run("close-session.minus-session",
        {{"op", "close-session"}, {"session", "-1"}});

  // ---- close-session, then shutdown
  const Fields close = {{"op", "close-session"}, {"session", session}};
  t.Run("close-session.no-session", {{"op", "close-session"}});
  t.Run("close-session.bad-session", With(close, "session", "abc"));
  t.Run("close-session.unknown-session", With(close, "session", "999"));
  t.Run("close-session.valid", close);
  t.Run("close-session.repeat", close);
  t.Run("list-models.closed-session", list_models);
  t.Run("shutdown", {{"op", "shutdown"}});
}

// Splits a transcript into its "== <tier> <case>" blocks, keyed by header.
std::map<std::string, std::string> SplitCases(const std::string& text) {
  std::map<std::string, std::string> cases;
  std::istringstream in(text);
  std::string header;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("== ", 0) == 0) {
      header = line;
    } else {
      cases[header] += line + "\n";
    }
  }
  return cases;
}

TEST_F(ServerTest, GoldenWireTranscript) {
  TestProblem problem = MakeProblem(12, 51);
  problem.graph.Finalize();
  const std::string fog_path = UniqueSocketPath() + ".fog";
  ASSERT_TRUE(WriteFogFile(fog_path, problem.graph).ok());
  std::string transcript;
  const std::pair<const char*, PressureTier> tiers[] = {
      {"green", PressureTier::kGreen},
      {"yellow", PressureTier::kYellow},
      {"black", PressureTier::kBlack}};
  for (const auto& [name, tier] : tiers) {
    ServerOptions options;
    options.force_tier = static_cast<int>(tier);
    StartServer(std::move(options));
    {
      Client client = MustConnect();
      GoldenTranscript t(&client, name);
      RunGoldenCorpus(t, problem, fog_path);
      transcript += t.text();
    }
    serve_thread_.join();  // the corpus ends with op=shutdown
    server_.reset();
  }
  std::remove(fog_path.c_str());

  const std::string path = std::string(FOLEARN_TEST_DATA_DIR) +
                           "/server_golden.txt";
  if (std::getenv("FOLEARN_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path) << transcript;
    GTEST_SKIP() << "rewrote " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden transcript " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  // Report differing cases by name; the whole-text check below also pins
  // case order.
  const std::map<std::string, std::string> want = SplitCases(expected.str());
  const std::map<std::string, std::string> got = SplitCases(transcript);
  std::string diff;
  for (const auto& [header, body] : want) {
    auto it = got.find(header);
    const std::string actual = it == got.end() ? "<missing>\n" : it->second;
    if (actual != body) {
      diff += header + "\n want:\n" + body + " got:\n" + actual;
    }
  }
  for (const auto& [header, body] : got) {
    if (!want.contains(header)) diff += header + "\n unexpected case\n";
  }
  if (!diff.empty()) ADD_FAILURE() << diff;
  EXPECT_TRUE(transcript == expected.str()) << "transcript differs";
}

// Lines in /proc/self/maps: every live or finished-but-unjoined thread
// pins its stack and guard page there.
int64_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  int64_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Every folearn_client invocation is one connection; a long-lived daemon
// must join finished connection threads as it goes, not only at shutdown.
TEST_F(ServerTest, FinishedConnectionThreadsAreReaped) {
  StartServer(ServerOptions{});
  const auto round_trip = [&] {
    Client client = MustConnect();
    EXPECT_TRUE(client.Ping().ok());
  };
  // Warm-up: the thread-stack cache and malloc arenas settle first.
  for (int i = 0; i < 8; ++i) round_trip();
  const int64_t before = MappingCount();
  for (int i = 0; i < 200; ++i) round_trip();
  // Unreaped, 200 finished threads would add ~400 mappings.
  EXPECT_LT(MappingCount() - before, 100);
}

TEST_F(ServerTest, ShutdownOpStopsTheServeLoop) {
  StartServer(ServerOptions{});
  Client client = MustConnect();
  ASSERT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.RequestShutdown().ok());
  serve_thread_.join();
  // The socket file is gone; new connections fail cleanly.
  StatusOr<Client> late = Client::Connect(server_->socket_path());
  EXPECT_FALSE(late.ok());
}

}  // namespace
}  // namespace folearn
