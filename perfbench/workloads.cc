// The three benchmark workloads. Each one makes its inputs from the seed,
// sets the system up several times (the median is setup_s), drives it for
// the requested number of seconds, and checks every answer against an
// oracle computed in-process, outside the timed parts.
//
//   batch-learn  folearn_cli learn children, brute and nd, in parallel
//                streams that each run one child at a time
//   serve-eval   folearnd, closed loop of evaluate-by-model-id requests
//                with a deadline, on .fog graphs all sessions share
//   serve-mixed  folearnd with a journal, closed loop of whole session
//                lifecycles on small graphs drawn from a pool
//
// End-to-end metrics are the same five names on every workload; the
// workload's operation is what op_* and ops_per_s count (see README.md).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "bench.h"
#include "fo/parser.h"
#include "graph/fog.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "learn/erm.h"
#include "learn/hypothesis.h"
#include "learn/model_io.h"
#include "mc/evaluator.h"
#include "proc.h"
#include "server/client.h"
#include "trace.h"
#include "util/checkpoint.h"
#include "util/rng.h"

namespace perfbench {

using folearn::Client;
using folearn::Graph;
using folearn::Hypothesis;
using folearn::LabeledExample;
using folearn::Message;
using folearn::StatusOr;
using folearn::TrainingSet;
using folearn::Vertex;

// A deadline real clients would send: generous enough never to trip.
constexpr char kDeadlineMs[] = "60000";
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
// Length of the alternating traced / untraced blocks of a traced run.
constexpr double kTraceBlockS = 0.5;
// Target length of the blocks the end-to-end metrics are medians over.
constexpr double kMetricBlockS = 5.0;
// Fewest operations in one block: ten of them lie beyond its p90.
constexpr int kMinBlockOps = 100;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

TrainingSet SampleExamples(int n, int count, uint64_t seed) {
  folearn::Rng rng(seed);
  std::vector<Vertex> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  TrainingSet examples;
  for (int i = 0; i < count && i < n; ++i) {
    std::swap(ids[i], ids[rng.UniformInt(i, n - 1)]);
    examples.push_back({{ids[i]}, ids[i] % 7 < 3});
  }
  return examples;
}

Graph MakeColouredTree(int n, uint64_t seed) {
  folearn::Rng rng(seed);
  Graph graph = folearn::MakeRandomTree(n, rng);
  folearn::AddRandomColors(graph, {"Red"}, 0.33, rng);
  return graph;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

std::string ReadText(const std::string& path) {
  folearn::StatusOr<std::string> text = folearn::ReadFileToString(path);
  return text.ok() ? *std::move(text) : std::string();
}

namespace {

int Connections() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

// Graph seeds stay in the range folearn_cli's --seed flag accepts.
int64_t GraphSeed(uint64_t seed, uint64_t salt) {
  return static_cast<int64_t>(Mix(seed, salt) % 2000000000ull) + 1;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

Message Request(
    std::initializer_list<std::pair<const char*, std::string>> fields) {
  Message message;
  for (const auto& [key, value] : fields) message.Set(key, value);
  return message;
}

// Interpreter verdicts of `hypothesis` on single-vertex tuples: the
// reference oracle every served answer is checked against.
bool OracleClassify(const Graph& graph, const Hypothesis& hypothesis,
                    Vertex v) {
  folearn::EvalOptions options;
  options.engine = folearn::EvalEngine::kInterpreted;
  options.missing_color_is_false = true;
  return hypothesis.Classify(graph, std::vector<Vertex>{v}, options);
}

// Runs body(i) for i in [0, count) on up to `threads` threads.
template <typename Body>
void ParallelFor(int count, int threads, const Body& body) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (int i = next++; i < count; i = next++) body(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

// Reads the daemon's counters; leaves them zero if `stats` fails.
void ReadCounters(Client& client, ServerCounters* counters) {
  StatusOr<Message> stats = client.Call(Request({{"op", "stats"}}));
  if (!stats.ok() || stats->Get("status") != folearn::kStatusOk) return;
  const auto get = [&](const char* key) {
    return std::strtoll(stats->Get(key, "0").c_str(), nullptr, 10);
  };
  counters->requests = get("requests");
  counters->partial = get("partial");
  counters->shed = get("shed");
  counters->journal_writes = get("journal-writes");
  counters->plan_hits = get("plan-hits");
  counters->plan_misses = get("plan-misses");
}

ServerCounters Delta(const ServerCounters& after, const ServerCounters& before) {
  ServerCounters d;
  d.requests = after.requests - before.requests;
  d.partial = after.partial - before.partial;
  d.shed = after.shed - before.shed;
  d.journal_writes = after.journal_writes - before.journal_writes;
  d.plan_hits = after.plan_hits - before.plan_hits;
  d.plan_misses = after.plan_misses - before.plan_misses;
  return d;
}

StatusOr<Message> TracedCall(Client& client, const Message& request,
                             const char* span, int64_t request_id) {
  ScopedSpan s(span, request_id);
  return client.Call(request);
}

// Median round trip of a ping on an otherwise idle connection, in µs.
double PingRttUs(Client& client) {
  std::vector<double> us;
  for (int i = 0; i < 50; ++i) {
    const double start = NowSeconds();
    if (!client.Ping().ok()) return 0.0;
    us.push_back((NowSeconds() - start) * 1e6);
  }
  return Median(us);
}

// In a traced run, alternate blocks of operations run muted, so the
// overhead of tracing is measured within the run.
bool TracedBlock(const Options& options, double window_start) {
  if (!options.trace) return false;
  const double t = NowSeconds() - window_start;
  return static_cast<int64_t>(t / kTraceBlockS) % 2 == 1;
}

int MetricBlocks(const Options& options) {
  return std::max(1, static_cast<int>(std::lround(options.seconds /
                                                  kMetricBlockS)));
}

// Each op metric is the median over the window's blocks of that block's
// p50, p90 and throughput; one block is the whole window. Fewer blocks
// are used when the window has too few operations for w.blocks of them.
void AddEndToEnd(const Options& o, const Window& w, Outcome* out) {
  const int blocks = std::clamp(
      static_cast<int>(w.ops.size()) / kMinBlockOps, 1, w.blocks);
  const double block_s =
      blocks == 1 ? std::max(w.elapsed_s, 1e-9) : o.seconds / blocks;
  std::vector<std::vector<double>> ms(blocks);
  for (const auto& [start, latency] : w.ops) {
    ms[std::min(blocks - 1, static_cast<int>(start / block_s))].push_back(
        latency);
  }
  std::vector<double> p50, p90, rate;
  for (const std::vector<double>& block : ms) {
    rate.push_back(static_cast<double>(block.size()) / block_s);
    if (block.empty()) continue;
    p50.push_back(Median(block));
    p90.push_back(Percentile(block, 0.9));
  }
  out->Add("setup_s", Median(w.setup_s), "s");
  out->Add("peak_rss_mb", w.peak_rss_mb, "MB");
  out->Add("op_p50_ms", Median(p50), "ms");
  out->Add("op_p90_ms", Median(p90), "ms");
  out->Add("ops_per_s", Median(rate), "1/s");
}

// Shared closing step of the serve workloads: peak RSS, then a shutdown
// that must exit 0 and remove the socket.
void CloseDaemon(Daemon& daemon, Window* w, Outcome* out) {
  w->peak_rss_mb = static_cast<double>(daemon.PeakRssKb()) / 1024.0;
  std::string why;
  if (!daemon.Shutdown(&why)) out->Wrong(why);
}

// ---------------------------------------------------------------------
// batch-learn: folearn_cli learn children on seeded random trees.

bool RunBatchLearn(const Options& o, Outcome* out, std::string* error) {
  // Trees keep the nd learner in seconds (bounded-degree graphs took tens
  // of seconds per learn); n≈2000 puts nearly all time into balls and
  // local types. 50 examples keep one operation near half a second, so a
  // window holds hundreds of them and its metrics are medians over blocks.
  constexpr int kN = 2000;
  constexpr int kExamples = 50;
  constexpr int kProblems = 24;
  struct Problem {
    std::string graph, data;
    TrainingSet examples;
    std::string models[2];  // brute, nd: bytes of the first learn
    std::string model_files[2];  // and the files it wrote
    std::string brute_error;
    int64_t peak_kb = 0;    // largest peak RSS of its learn children
    int learns = 0;         // times learned by both learners
  };
  std::vector<Problem> problems(kProblems);
  Window w;
  for (int rep = 0; rep < kSetups; ++rep) {
    const double start = NowSeconds();
    for (int i = 0; i < kProblems; ++i) {
      Problem& p = problems[i];
      p.graph = "p" + std::to_string(i) + ".txt";
      p.data = "d" + std::to_string(i) + ".txt";
      ChildResult gen = RunChild(
          {o.cli, "generate", "--family", "tree", "--n", std::to_string(kN),
           "--seed", std::to_string(GraphSeed(o.seed, i)), "--color",
           "Red:0.33", "--out", p.graph});
      p.examples = SampleExamples(kN, kExamples, Mix(o.seed, 100 + i));
      if (gen.exit_code != 0 ||
          !WriteFile(p.data, folearn::TrainingSetToText(p.examples))) {
        *error = "generate failed: " + gen.err;
        return false;
      }
    }
    w.setup_s.push_back(NowSeconds() - start);
  }

  const char* kLearners[2] = {"brute", "nd"};
  const char* kSpans[2] = {"call.learn-brute", "call.learn-nd"};
  std::mutex mu;  // guards `problems` and `out` while the streams run
  // Learns problem i with both learners and checks the outputs against
  // the problem's earlier learns; false when a learn child failed. Each
  // stream writes its own model files.
  const auto learn_pair = [&](int i, int stream, int64_t request) {
    Problem& p = problems[i];
    bool ok = true;
    for (int l = 0; l < 2; ++l) {
      const std::string model = std::string("m") + kLearners[l] +
                                std::to_string(i) + "-" +
                                std::to_string(stream) + ".txt";
      ChildResult r;
      {
        ScopedSpan call(kSpans[l], request);
        r = RunChild({o.cli, "learn", "--graph", p.graph, "--data", p.data,
                      "--rank", "1", "--radius", "1", "--ell", "1",
                      "--learner", kLearners[l], "--threads", "1", "--out",
                      model},
                     /*sample_rss=*/true);
      }
      const std::string bytes = ReadText(model);
      std::lock_guard<std::mutex> lock(mu);
      ++out->attempted;
      if (r.exit_code != 0) {
        ++out->failed;
        ok = false;
        continue;
      }
      p.peak_kb = std::max(p.peak_kb, r.max_rss_kb);
      if (p.models[l].empty()) {
        p.models[l] = bytes;
        p.model_files[l] = model;
      }
      if (bytes.empty() || bytes != p.models[l]) {
        out->Wrong(std::string(kLearners[l]) + " model of " + p.graph +
                   " differs between repeats");
      }
      if (l == 0) {
        // "training error: 0.4150 over 9 local types"
        const size_t at = r.err.find("training error: ");
        const std::string printed =
            at == std::string::npos
                ? ""
                : r.err.substr(at + 16, r.err.find(' ', at + 16) - (at + 16));
        if (p.brute_error.empty()) p.brute_error = printed;
        if (printed.empty() || printed != p.brute_error) {
          out->Wrong("brute training error of " + p.graph +
                     " unreadable or not repeatable");
        }
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++p.learns;
    return ok;
  };

  // min(nproc, 4) streams, each running its learn children one at a time,
  // take the suite's problems in turn: one core's share of a shared host
  // drifts more than all of them together.
  const int streams = Connections();
  std::atomic<int> next_op{0};
  const double start = NowSeconds();
  const double deadline = start + o.seconds;
  w.blocks = MetricBlocks(o);
  std::vector<std::thread> threads;
  for (int t = 0; t < streams; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::pair<double, double>> lat;
      std::vector<double> traced_lat;
      while (NowSeconds() < deadline) {
        const int k = next_op++;
        const bool traced = o.trace && k % 2 == 1;
        SetThreadMuted(!traced);
        const int64_t request = NewRequestId();
        const double op_start = NowSeconds();
        bool ok = false;
        {
          ScopedSpan op("op.learn-problem", request);
          ok = learn_pair(k % kProblems, t, request);
        }
        const double op_ms = (NowSeconds() - op_start) * 1e3;
        if (ok && traced) traced_lat.push_back(op_ms);
        if (ok && !traced) lat.emplace_back(op_start - start, op_ms);
      }
      SetThreadMuted(false);
      std::lock_guard<std::mutex> lock(mu);
      w.ops.insert(w.ops.end(), lat.begin(), lat.end());
      w.traced_op_ms.insert(w.traced_op_ms.end(), traced_lat.begin(),
                            traced_lat.end());
    });
  }
  for (std::thread& thread : threads) thread.join();
  w.elapsed_s = NowSeconds() - start;
  // Outside the window: learn the first problem once more if the window
  // did not repeat it, so the byte-identity check always runs.
  if (problems[0].learns < 2) learn_pair(0, 0, NewRequestId());
  // The nd learner's peak RSS varies severalfold from tree to tree, so the
  // suite reports the median problem's peak, not the largest.
  std::vector<double> peaks_mb;
  for (const Problem& p : problems) {
    if (p.peak_kb > 0) peaks_mb.push_back(static_cast<double>(p.peak_kb) / 1024.0);
  }
  w.peak_rss_mb = Median(peaks_mb);

  // The brute model's error, recomputed by `folearn_cli eval`, must equal
  // the error `learn` printed.
  for (const Problem& p : problems) {
    if (p.models[0].empty()) continue;
    ChildResult r = RunChild({o.cli, "eval", "--graph", p.graph, "--data",
                              p.data, "--model", p.model_files[0]});
    const std::string expected = "error: " + p.brute_error + " on ";
    if (r.exit_code != 0 || r.out.rfind(expected, 0) != 0) {
      out->Wrong("eval of " + p.model_files[0] + " printed '" + r.out +
                 "', learn printed " + p.brute_error);
    }
  }
  if (!o.trace) {
    AddEndToEnd(o, w, out);
    return true;
  }

  // Server-layer probe: batch-learn drives no daemon, so a short session
  // on the first problem gives the server numbers of this workload.
  const Problem& p = problems[0];
  StatusOr<Graph> graph = folearn::LoadGraphAuto(p.graph);
  if (!graph.ok() || p.models[0].empty()) {
    *error = "no graph or model for the layer probes";
    return false;
  }
  ProbeInput input;
  input.seed = o.seed;
  input.graph_path = p.graph;
  input.graph = &*graph;
  input.learn_data = p.examples;
  input.rank = 1;
  input.radius = 1;
  input.ell = 1;
  input.eval_examples.assign(p.examples.begin(), p.examples.begin() + 16);
  Daemon daemon;
  if (!daemon.Start(o.daemon, "d.sock", {}, error)) return false;
  StatusOr<Client> client = Client::Connect(daemon.socket(), 60000);
  if (!client.ok()) {
    *error = "cannot connect to folearnd";
    return false;
  }
  ServerCounters before, after;
  ReadCounters(*client, &before);
  input.messages.push_back(
      Request({{"op", "load-graph"}, {"graph", ReadText(p.graph)}}));
  StatusOr<Message> loaded = client->Call(input.messages.back());
  const std::string session = loaded.ok() ? loaded->Get("session") : "";
  for (int i = 0; i < 4; ++i) {
    TrainingSet batch(p.examples.begin() + 4 * i,
                      p.examples.begin() + 4 * i + 4);
    input.messages.push_back(
        Request({{"op", "evaluate"}, {"session", session},
                 {"model", p.models[0]},
                 {"data", folearn::TrainingSetToText(batch)}}));
    StatusOr<Message> r = client->Call(input.messages.back());
    if (!r.ok() || r->Get("status") != folearn::kStatusOk) {
      out->Wrong("server probe evaluate failed");
    }
  }
  ReadCounters(*client, &after);
  input.server.delta = Delta(after, before);
  input.server.ops = 5;
  input.server.ping_rtt_us = PingRttUs(*client);
  std::string why;
  if (!daemon.Shutdown(&why)) out->Wrong(why);
  ProbeLayers(input, w, out);
  return true;
}

// ---------------------------------------------------------------------
// serve-eval: governed evaluate requests against shared .fog graphs.

bool RunServeEval(const Options& o, Outcome* out, std::string* error) {
  // n≈500 keeps one request near 100 ms: the full-V quantifier scans of
  // the relativised model dominate, framing is negligible. One example's
  // cost varies severalfold with the tree, with the model (how many local
  // types it accepts is a matter of the training sample) and with the
  // vertex, so a run serves 24 trees, 8 models per tree and 2 vertices per
  // model (with 48 models the p50 moved by a fifth from seed to seed);
  // every request picks a model at random. Each tree is one .fog pack that
  // all connections' sessions share. The interpreter oracle (about 0.1 s
  // per (model, vertex) pair) bounds the number of pairs.
  constexpr int kN = 500;
  constexpr int kGraphs = 24;
  constexpr int kModelsPerGraph = 8;
  constexpr int kModels = kGraphs * kModelsPerGraph;
  constexpr int kSetupExamples = 120;
  constexpr int kPool = 2;  // vertices per model, drawn uniformly from V
  constexpr int kPerRequest = 4;
  const int conns = Connections();
  const auto text_file = [](int g) { return "g" + std::to_string(g) + ".txt"; };
  const auto fog_file = [](int g) { return "g" + std::to_string(g) + ".fog"; };
  struct Conn {
    std::optional<Client> client;
    std::vector<std::string> sessions;   // per graph
    std::vector<std::string> model_ids;  // per model
  };
  std::vector<Conn> c(conns);
  Daemon daemon;
  std::vector<std::string> models(kModels);  // j is on graph j / kModelsPerGraph
  Window w;
  std::vector<std::string> setup_data;
  for (int j = 0; j < kModels; ++j) {
    setup_data.push_back(folearn::TrainingSetToText(
        SampleExamples(kN, kSetupExamples, Mix(o.seed, 200 + j))));
  }
  for (int rep = 0; rep < kSetups; ++rep) {
    const double start = NowSeconds();
    for (int g = 0; g < kGraphs; ++g) {
      ChildResult gen = RunChild(
          {o.cli, "generate", "--family", "tree", "--n", std::to_string(kN),
           "--seed", std::to_string(GraphSeed(o.seed, 1 + g)), "--color",
           "Red:0.33", "--out", text_file(g)});
      ChildResult pack = RunChild(
          {o.cli, "graph-pack", "--graph", text_file(g), "--out", fog_file(g)});
      if (gen.exit_code != 0 || pack.exit_code != 0) {
        *error = "generate/graph-pack failed: " + gen.err + pack.err;
        return false;
      }
    }
    if (!daemon.Start(o.daemon, "d.sock", {}, error)) return false;
    // The connections set up side by side, each with a session per graph
    // and every model learned in it.
    std::vector<std::string> errors(conns);
    std::mutex mu;
    std::vector<std::thread> setups;
    for (int t = 0; t < conns; ++t) {
      setups.emplace_back([&, t] {
        Conn& conn = c[t];
        StatusOr<Client> client = Client::Connect(daemon.socket(), 60000);
        if (!client.ok()) {
          errors[t] = "cannot connect to folearnd";
          return;
        }
        conn.client.emplace(*std::move(client));
        conn.sessions.clear();
        conn.model_ids.clear();
        for (int g = 0; g < kGraphs; ++g) {
          StatusOr<Message> loaded = conn.client->Call(
              Request({{"op", "load-graph"}, {"graph-file", fog_file(g)}}));
          if (!loaded.ok() || loaded->Get("status") != folearn::kStatusOk) {
            errors[t] = "load-graph failed";
            return;
          }
          conn.sessions.push_back(loaded->Get("session"));
        }
        for (int j = 0; j < kModels; ++j) {
          StatusOr<Message> learned = conn.client->Call(Request(
              {{"op", "learn"}, {"session", conn.sessions[j / kModelsPerGraph]},
               {"data", setup_data[j]}, {"rank", "1"}, {"radius", "2"},
               {"ell", "0"}, {"threads", "1"}}));
          if (!learned.ok() || learned->Get("status") != folearn::kStatusOk) {
            errors[t] = "setup learn failed";
            return;
          }
          conn.model_ids.push_back(learned->Get("model-id"));
          std::lock_guard<std::mutex> lock(mu);
          if (models[j].empty()) models[j] = learned->Get("model");
          if (learned->Get("model") != models[j]) {
            out->Wrong("setup learns of one sample returned different models");
          }
        }
      });
    }
    for (std::thread& thread : setups) thread.join();
    for (const std::string& e : errors) {
      if (!e.empty()) {
        *error = e;
        return false;
      }
    }
    w.setup_s.push_back(NowSeconds() - start);
    if (rep + 1 < kSetups) {
      for (Conn& conn : c) conn.client.reset();
      std::string why;
      if (!daemon.Shutdown(&why)) out->Wrong(why);
    }
  }

  // Oracle labels for the request vertices (interpreter, outside setup).
  std::vector<Graph> graphs;
  for (int g = 0; g < kGraphs; ++g) {
    StatusOr<Graph> graph = folearn::LoadGraphAuto(text_file(g));
    if (!graph.ok()) {
      *error = "cannot load " + text_file(g);
      return false;
    }
    graphs.push_back(*std::move(graph));
  }
  std::vector<Hypothesis> hypotheses;
  for (const std::string& model : models) {
    StatusOr<Hypothesis> h = folearn::ParseHypothesis(model);
    if (!h.ok()) {
      *error = "cannot parse a served model";
      return false;
    }
    hypotheses.push_back(*std::move(h));
  }
  // Entry j * kPool + r is model j's r-th vertex.
  const TrainingSet pool = SampleExamples(kN, kModels * kPool, Mix(o.seed, 3));
  std::vector<char> oracle(kModels * kPool);
  ParallelFor(kModels * kPool, conns, [&](int i) {
    const int j = i / kPool;
    oracle[i] = OracleClassify(graphs[j / kModelsPerGraph], hypotheses[j],
                               pool[i].tuple[0]);
  });

  StatusOr<Client> control = Client::Connect(daemon.socket(), 60000);
  if (!control.ok()) {
    *error = "cannot connect to folearnd";
    return false;
  }
  ProbeInput input;
  input.server.ping_rtt_us = PingRttUs(*control);
  ServerCounters before, after;
  ReadCounters(*control, &before);
  std::mutex mu;
  std::atomic<int64_t> attempted{0}, failed{0};
  std::vector<std::string> wrong;
  const double start = NowSeconds();
  const double deadline = start + o.seconds;
  w.blocks = MetricBlocks(o);
  std::vector<std::thread> threads;
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      folearn::Rng rng(Mix(o.seed, 10 + t));
      std::vector<std::pair<double, double>> lat;
      std::vector<double> traced_lat;
      while (NowSeconds() < deadline) {
        const bool traced = TracedBlock(o, start);
        SetThreadMuted(!traced);
        const int64_t request = NewRequestId();
        const double op_start = NowSeconds();
        ScopedSpan op("op.evaluate", request);
        const int m = static_cast<int>(rng.UniformIndex(kModels));
        TrainingSet batch;
        int expected_wrong = 0;
        for (int j = 0; j < kPerRequest; ++j) {
          const int i = m * kPool + static_cast<int>(rng.UniformIndex(kPool));
          const bool label = rng.Bernoulli(0.5);
          batch.push_back({pool[i].tuple, label});
          expected_wrong += (oracle[i] != 0) != label;
        }
        const Message req = Request(
            {{"op", "evaluate"}, {"session", c[t].sessions[m / kModelsPerGraph]},
             {"model-id", c[t].model_ids[m]},
             {"data", folearn::TrainingSetToText(batch)},
             {"deadline-ms", kDeadlineMs}});
        StatusOr<Message> r =
            TracedCall(*c[t].client, req, "call.evaluate", request);
        ++attempted;
        if (!r.ok() || r->Get("status") != folearn::kStatusOk) {
          ++failed;
          continue;
        }
        char expected[32];
        std::snprintf(expected, sizeof(expected), "%.6f",
                      static_cast<double>(expected_wrong) / kPerRequest);
        if (r->Get("error") != expected) {
          std::lock_guard<std::mutex> lock(mu);
          wrong.push_back("evaluate answered error " + r->Get("error") +
                          ", oracle says " + expected);
        }
        const double op_ms = (NowSeconds() - op_start) * 1e3;
        if (traced) {
          traced_lat.push_back(op_ms);
        } else {
          lat.emplace_back(op_start - start, op_ms);
        }
        if (t == 0 && input.messages.empty()) {
          std::lock_guard<std::mutex> lock(mu);
          input.messages.push_back(req);
        }
      }
      SetThreadMuted(false);
      std::lock_guard<std::mutex> lock(mu);
      w.ops.insert(w.ops.end(), lat.begin(), lat.end());
      w.traced_op_ms.insert(w.traced_op_ms.end(), traced_lat.begin(),
                            traced_lat.end());
    });
  }
  for (std::thread& thread : threads) thread.join();
  w.elapsed_s = NowSeconds() - start;
  ReadCounters(*control, &after);
  out->attempted = attempted;
  out->failed = failed;
  if (!wrong.empty()) out->Wrong(wrong.front());
  input.server.delta = Delta(after, before);
  input.server.ops = attempted;
  for (Conn& conn : c) conn.client.reset();
  CloseDaemon(daemon, &w, out);
  if (!o.trace) {
    AddEndToEnd(o, w, out);
    return true;
  }
  input.seed = o.seed;
  input.graph_path = text_file(0);
  input.graph = &graphs[0];
  input.learn_data = SampleExamples(kN, kSetupExamples, Mix(o.seed, 200));
  input.rank = 1;
  input.radius = 2;
  input.ell = 0;
  input.eval_examples.assign(pool.begin(),
                             pool.begin() + kModelsPerGraph * kPool);
  ProbeLayers(input, w, out);
  return true;
}

// ---------------------------------------------------------------------
// serve-mixed: whole session lifecycles with the journal on.

// Sentences for `query`; each pool graph is asked one of them.
const char* const kSentences[] = {
    "exists x. Red(x)",
    "exists x. exists y. (E(x, y) & Red(x) & Red(y))",
    "forall x. (Red(x) -> exists y. E(x, y))",
    "exists x. (Red(x) & forall y. (E(x, y) -> !Red(y)))",
    "exists x. exists y. exists z. (E(x, y) & E(y, z) & !(x = z) & Red(x) & "
    "Red(z))",
};

bool RunServeMixed(const Options& o, Outcome* out, std::string* error) {
  // Small graphs keep each request cheap, so the pipeline and the journal
  // show beside compute; a pool larger than the cycles of one connection
  // makes most learned models new to the plan cache.
  constexpr int kN = 128;
  constexpr int kPool = 256;
  constexpr int kLearnExamples = 32;
  constexpr int kEvals = 4;
  constexpr int kEvalExamples = 8;
  const int conns = Connections();
  struct Entry {
    std::string graph_text, learn_text, sentence;
    TrainingSet learn;
    std::vector<TrainingSet> evals;
    std::vector<std::string> eval_texts;
  };
  std::vector<Entry> pool(kPool);
  std::vector<std::optional<Client>> clients(conns);
  Daemon daemon;
  Window w;
  for (int rep = 0; rep < kSetups; ++rep) {
    const double start = NowSeconds();
    for (int g = 0; g < kPool; ++g) {
      Entry& e = pool[g];
      e.graph_text = folearn::ToText(MakeColouredTree(kN, GraphSeed(o.seed, 1000 + g)));
      e.learn = SampleExamples(kN, kLearnExamples, Mix(o.seed, 5000 + g));
      e.learn_text = folearn::TrainingSetToText(e.learn);
      e.evals.clear();
      e.eval_texts.clear();
      for (int j = 0; j < kEvals; ++j) {
        e.evals.push_back(SampleExamples(kN, kEvalExamples,
                                         Mix(o.seed, 9000 + kEvals * g + j)));
        e.eval_texts.push_back(folearn::TrainingSetToText(e.evals.back()));
      }
      e.sentence = kSentences[Mix(o.seed, 20000 + g) % std::size(kSentences)];
    }
    std::filesystem::remove_all("state");
    if (!daemon.Start(o.daemon, "d.sock", {"--state-dir", "state"}, error)) {
      return false;
    }
    for (auto& client : clients) {
      StatusOr<Client> connected = Client::Connect(daemon.socket(), 60000);
      if (!connected.ok()) {
        *error = "cannot connect to folearnd";
        return false;
      }
      client.emplace(*std::move(connected));
    }
    w.setup_s.push_back(NowSeconds() - start);
    if (rep + 1 < kSetups) {
      for (auto& client : clients) client.reset();
      std::string why;
      if (!daemon.Shutdown(&why)) out->Wrong(why);
    }
  }

  // What each finished cycle answered, checked after the window.
  struct Answer {
    int g = 0;
    std::string model;
    std::vector<std::string> errors;
    std::string query;
  };
  StatusOr<Client> control = Client::Connect(daemon.socket(), 60000);
  if (!control.ok()) {
    *error = "cannot connect to folearnd";
    return false;
  }
  ProbeInput input;
  input.server.ping_rtt_us = PingRttUs(*control);
  ServerCounters before, after;
  ReadCounters(*control, &before);
  std::mutex mu;
  std::vector<Answer> answers;
  std::atomic<int64_t> attempted{0}, failed{0}, cycles{0};
  const double start = NowSeconds();
  const double deadline = start + o.seconds;
  w.blocks = MetricBlocks(o);
  std::vector<std::thread> threads;
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      folearn::Rng rng(Mix(o.seed, 30 + t));
      Client& client = *clients[t];
      std::vector<std::pair<double, double>> lat;
      std::vector<double> traced_lat;
      std::vector<Answer> mine;
      std::vector<Message> sent;
      for (int k = 0; NowSeconds() < deadline; ++k) {
        const bool traced = TracedBlock(o, start);
        SetThreadMuted(!traced);
        const int64_t request = NewRequestId();
        const double op_start = NowSeconds();
        ScopedSpan op("op.cycle", request);
        Answer a;
        a.g = static_cast<int>(rng.UniformIndex(kPool));
        const Entry& e = pool[a.g];
        sent.clear();
        // Sends one request; false when the answer is not ok.
        const auto call = [&](const char* span, Message req,
                              Message* resp) {
          sent.push_back(req);
          StatusOr<Message> r = TracedCall(client, req, span, request);
          ++attempted;
          if (!r.ok() || r->Get("status") != folearn::kStatusOk) {
            ++failed;
            return false;
          }
          *resp = *std::move(r);
          return true;
        };
        Message resp;
        if (!call("call.load-graph",
                  Request({{"op", "load-graph"}, {"graph", e.graph_text}}),
                  &resp)) {
          continue;
        }
        const std::string session = resp.Get("session");
        bool ok = call("call.learn",
                       Request({{"op", "learn"}, {"session", session},
                                {"data", e.learn_text}, {"rank", "1"},
                                {"radius", "1"}, {"ell", "1"},
                                {"threads", "1"},
                                {"request-id", "c" + std::to_string(t) + "-" +
                                                   std::to_string(k)}}),
                       &resp);
        const std::string model_id = resp.Get("model-id");
        a.model = resp.Get("model");
        for (int j = 0; ok && j < kEvals; ++j) {
          ok = call("call.evaluate",
                    Request({{"op", "evaluate"}, {"session", session},
                             {"model-id", model_id},
                             {"data", e.eval_texts[j]}}),
                    &resp);
          a.errors.push_back(resp.Get("error"));
        }
        ok = ok && call("call.query",
                        Request({{"op", "query"}, {"session", session},
                                 {"sentence", e.sentence}}),
                        &resp);
        a.query = resp.Get("result");
        ok = call("call.close-session",
                  Request({{"op", "close-session"}, {"session", session}}),
                  &resp) &&
             ok;
        if (!ok) continue;
        const double op_ms = (NowSeconds() - op_start) * 1e3;
        if (traced) {
          traced_lat.push_back(op_ms);
        } else {
          lat.emplace_back(op_start - start, op_ms);
        }
        mine.push_back(std::move(a));
        ++cycles;
        if (t == 0 && k == 0) {
          std::lock_guard<std::mutex> lock(mu);
          input.messages = sent;
        }
      }
      SetThreadMuted(false);
      std::lock_guard<std::mutex> lock(mu);
      w.ops.insert(w.ops.end(), lat.begin(), lat.end());
      w.traced_op_ms.insert(w.traced_op_ms.end(), traced_lat.begin(),
                            traced_lat.end());
      answers.insert(answers.end(), mine.begin(), mine.end());
    });
  }
  for (std::thread& thread : threads) thread.join();
  w.elapsed_s = NowSeconds() - start;
  ReadCounters(*control, &after);
  out->attempted = attempted;
  out->failed = failed;
  input.server.delta = Delta(after, before);
  input.server.ops = cycles;
  clients.clear();
  CloseDaemon(daemon, &w, out);
  // Every session was closed, so no session journal may be left.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("state", ec)) {
    if (entry.path().filename() != "meta.ckpt") {
      out->Wrong("journal file left after close: " + entry.path().string());
    }
  }
  std::filesystem::remove_all("state", ec);

  // Oracle: in-process BruteForceErm must give byte-identical models, and
  // the interpreter must agree with every evaluate and query answer.
  struct Expected {
    std::string model;
    std::vector<std::string> errors;
    std::string query;
  };
  std::vector<int> used;
  for (const Answer& a : answers) used.push_back(a.g);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  if (o.trace && (used.empty() || used.front() != 0)) used.insert(used.begin(), 0);
  std::vector<Expected> expected(kPool);
  std::vector<std::optional<Graph>> graphs(kPool);
  ParallelFor(static_cast<int>(used.size()), conns, [&](int u) {
    const int g = used[u];
    const Entry& e = pool[g];
    graphs[g].emplace(*folearn::ParseGraph(e.graph_text));
    const Graph& graph = *graphs[g];
    folearn::ErmOptions erm;
    erm.rank = 1;
    erm.radius = 1;
    erm.threads = 1;
    const Hypothesis h =
        folearn::BruteForceErm(graph, e.learn, 1, erm).hypothesis.ToExplicit();
    Expected& x = expected[g];
    x.model = folearn::HypothesisToText(h);
    for (const TrainingSet& set : e.evals) {
      int wrong = 0;
      for (const LabeledExample& ex : set) {
        wrong += OracleClassify(graph, h, ex.tuple[0]) != ex.label;
      }
      char text[32];
      std::snprintf(text, sizeof(text), "%.6f",
                    static_cast<double>(wrong) / kEvalExamples);
      x.errors.push_back(text);
    }
    folearn::EvalOptions interp;
    interp.engine = folearn::EvalEngine::kInterpreted;
    interp.missing_color_is_false = true;
    x.query = folearn::EvaluateSentence(
                  graph, folearn::MustParseFormula(e.sentence), interp)
                  ? "true"
                  : "false";
  });
  for (const Answer& a : answers) {
    const Expected& x = expected[a.g];
    if (a.model != x.model) {
      out->Wrong("learn on pool graph " + std::to_string(a.g) +
                 " differs from in-process BruteForceErm");
    } else if (a.errors != x.errors) {
      out->Wrong("evaluate on pool graph " + std::to_string(a.g) +
                 " disagrees with the interpreter");
    } else if (a.query != x.query) {
      out->Wrong("query on pool graph " + std::to_string(a.g) + " answered " +
                 a.query + ", the interpreter says " + x.query);
    }
  }
  if (!o.trace) {
    AddEndToEnd(o, w, out);
    return true;
  }
  if (!WriteFile("pool0.txt", pool[0].graph_text)) {
    *error = "cannot write pool0.txt";
    return false;
  }
  input.seed = o.seed;
  input.graph_path = "pool0.txt";
  input.graph = &*graphs[0];
  input.learn_data = pool[0].learn;
  input.rank = 1;
  input.radius = 1;
  input.ell = 1;
  for (const TrainingSet& set : pool[0].evals) {
    input.eval_examples.insert(input.eval_examples.end(), set.begin(),
                               set.end());
  }
  ProbeLayers(input, w, out);
  return true;
}

}  // namespace

bool RunWorkload(const Options& options, Outcome* outcome,
                 std::string* error) {
  SetTracing(options.trace);
  if (options.workload == "batch-learn") {
    return RunBatchLearn(options, outcome, error);
  }
  if (options.workload == "serve-eval") {
    return RunServeEval(options, outcome, error);
  }
  if (options.workload == "serve-mixed") {
    return RunServeMixed(options, outcome, error);
  }
  *error = "unknown workload '" + options.workload +
           "' (batch-learn|serve-eval|serve-mixed)";
  return false;
}

}  // namespace perfbench
