#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "fo/parser.h"
#include "graph/algorithms.h"
#include "graph/fog.h"
#include "graph/io.h"
#include "learn/erm.h"
#include "learn/hypothesis.h"
#include "learn/model_io.h"
#include "mc/bytecode.h"
#include "mc/compiled_eval.h"
#include "mc/vm.h"
#include "types/type.h"

namespace folearn {

namespace {

Message MakeError(int code, std::string_view message) {
  Message response;
  response.Set("status", kStatusError);
  response.Set("code", std::to_string(code));
  response.Set("error", message);
  return response;
}

Message MakeErrorFromStatus(const Status& status) {
  return MakeError(StatusExitCode(status), status.message());
}

Message MakeOk() {
  Message response;
  response.Set("status", kStatusOk);
  response.Set("code", "0");
  return response;
}

// A governor trip: the request ran, the payload is best-so-far.
void MarkPartial(Message* response, RunStatus status) {
  response->Set("status", kStatusPartial);
  response->Set("code", "3");
  response->Set("run-status", RunStatusName(status));
}

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Parses a decimal int64 request field. Returns false (with *error named
// after the field) on trailing garbage, overflow, or non-numeric input —
// the protocol mirror of the CLI's exit-64 flag validation.
bool ParseInt64Field(const Message& request, const char* key,
                     int64_t fallback, int64_t* value, std::string* error) {
  const std::string* raw = request.Find(key);
  if (raw == nullptr) {
    *value = fallback;
    return true;
  }
  try {
    size_t pos = 0;
    *value = std::stoll(*raw, &pos);
    if (pos != raw->size()) throw std::invalid_argument(*raw);
  } catch (const std::exception&) {
    *error = "invalid value '" + *raw + "' for field '" + key + "'";
    return false;
  }
  return true;
}

bool ParseIntField(const Message& request, const char* key, int fallback,
                   int* value, std::string* error) {
  int64_t wide = 0;
  if (!ParseInt64Field(request, key, fallback, &wide, error)) return false;
  if (wide < INT32_MIN || wide > INT32_MAX) {
    *error = "invalid value '" + request.Get(key) + "' for field '" + key +
             "' (out of int range)";
    return false;
  }
  *value = static_cast<int>(wide);
  return true;
}

// Resolves the "model-id" field; the caller has established it is present.
bool ParseModelIdField(const Message& request, uint64_t* model_id,
                       Message* error_response) {
  const std::string raw = request.Get("model-id");
  if (!ParseU64(raw, model_id)) {
    *error_response =
        MakeError(kExitUsage, "invalid model id '" + raw + "'");
    return false;
  }
  return true;
}

// Parses a whitespace-separated vertex tuple ("3 17 4").
bool ParseTupleField(const std::string& text, std::vector<Vertex>* tuple,
                     std::string* error) {
  tuple->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
    if (pos >= text.size()) break;
    size_t end = pos;
    while (end < text.size() && text[end] != ' ' && text[end] != '\t') {
      ++end;
    }
    try {
      size_t used = 0;
      const std::string token = text.substr(pos, end - pos);
      long long value = std::stoll(token, &used);
      if (used != token.size() || value < 0) {
        throw std::invalid_argument(token);
      }
      tuple->push_back(static_cast<Vertex>(value));
    } catch (const std::exception&) {
      *error = "invalid vertex '" + text.substr(pos, end - pos) +
               "' in field 'tuple'";
      return false;
    }
    pos = end;
  }
  if (tuple->empty()) {
    *error = "field 'tuple' names no vertices";
    return false;
  }
  return true;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6f", value);
  return buffer;
}

// Every tuple entry must be a vertex of `graph`: the training set and the
// model file are external input and must not reach the library's CHECKs.
Status ValidateTuples(const Graph& graph, const TrainingSet& examples) {
  for (const LabeledExample& example : examples) {
    for (Vertex v : example.tuple) {
      if (!graph.IsValidVertex(v)) {
        return DataLossError("example names vertex " + std::to_string(v) +
                             " outside the session graph (order " +
                             std::to_string(graph.order()) + ")");
      }
    }
  }
  return OkStatus();
}

// The model must fit the session graph and the tuples it classifies: its
// parameters are vertices of the graph, every tuple has the model's arity
// k and names only vertices of the graph. `noun` names the tuples in the
// diagnostic ("example", "tuple").
Status CheckModelFits(const Hypothesis& hypothesis, const Graph& graph,
                      std::span<const std::span<const Vertex>> tuples,
                      const char* noun) {
  for (Vertex w : hypothesis.parameters) {
    if (!graph.IsValidVertex(w)) {
      return DataLossError("model parameter vertex " + std::to_string(w) +
                           " outside the session graph");
    }
  }
  const int k = hypothesis.k();
  for (std::span<const Vertex> tuple : tuples) {
    if (static_cast<int>(tuple.size()) != k) {
      return DataLossError(std::string(noun) + " arity " +
                           std::to_string(tuple.size()) +
                           " does not match the model's k=" +
                           std::to_string(k));
    }
    for (Vertex v : tuple) {
      if (!graph.IsValidVertex(v)) {
        return DataLossError(std::string(noun) + " names vertex " +
                             std::to_string(v) +
                             " outside the session graph");
      }
    }
  }
  return OkStatus();
}

// One evaluator of whichever engine the server runs, bound to one graph.
// Holds the plan-cache entry so the plan (and bytecode) stay alive even
// after the shared cache evicts them. The VM lane is taken only when the
// entry actually carries supported bytecode; anything else (tree-engine
// server, MSO plan the lowerer rejected) runs the compiled tree.
struct EngineEvaluator {
  CachedPlan cached;
  std::unique_ptr<CompiledEvaluator> tree;
  std::unique_ptr<VmEvaluator> vm;

  EngineEvaluator(const CachedPlan& entry, const Graph& graph,
                  const EvalOptions& options)
      : cached(entry) {
    if (ResolveEngine(options) == EvalEngine::kVm &&
        cached.bytecode != nullptr) {
      vm = std::make_unique<VmEvaluator>(*cached.plan, *cached.bytecode,
                                         graph, options);
    } else {
      tree = std::make_unique<CompiledEvaluator>(*cached.plan, graph,
                                                 options);
    }
  }

  bool Eval(std::span<const Vertex> tuple) {
    return vm != nullptr ? vm->Eval(tuple) : tree->Eval(tuple);
  }
};

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Approximate serialised footprint of a session record: what journal
// compaction compares against ServerOptions::journal_compact_bytes and
// what a session's journal share charges to its memory account. An
// estimate (string payloads + small per-entry headers) — both consumers
// only need monotonicity in the payload sizes.
int64_t ApproxRecordBytes(const SessionRecord& record) {
  int64_t bytes = 64 + static_cast<int64_t>(record.graph_text.size()) +
                  static_cast<int64_t>(record.graph_file.size());
  for (const auto& [model_id, text] : record.models) {
    bytes += 24 + static_cast<int64_t>(text.size());
  }
  for (const auto& [request_id, payload] : record.learns) {
    bytes += 16 + static_cast<int64_t>(request_id.size()) +
             static_cast<int64_t>(payload.size());
  }
  return bytes;
}

// One evaluation run of RequestContext::RunGoverned.
struct EvalRun {
  CachedPlan cached;           // the plan that ran
  std::vector<bool> verdicts;  // one per tuple evaluated before any trip
  bool interrupted = false;    // a governor trip cut the run short
  double exec_ms = 0.0;        // wall time of the evaluations
};

}  // namespace

// Per-session state kept warm across requests. All fields are guarded by
// `mu` — requests touching one session serialise; different sessions run
// in parallel.
struct Server::Session {
  // Declared first so it is destroyed last: registry and ball_cache
  // release their charges through this child budget on the way down, and
  // the budget's own destructor then returns any residual (the journal
  // share) to the process root.
  std::unique_ptr<MemBudget> mem;

  Session(Graph g, std::string text, int64_t ball_cache_bytes)
      : graph(std::move(g)),
        graph_text(std::move(text)),
        registry(std::make_shared<TypeRegistry>(
            Vocabulary(graph.vocabulary()))),
        ball_cache(graph, ball_cache_bytes) {}

  uint64_t id = 0;
  Graph graph;
  // The verbatim graph text, kept so journal writes never re-serialise
  // (byte-stable journals across saves). Empty for file-backed sessions,
  // which journal `graph_file` + `graph_fingerprint` instead and re-warm
  // by (memory-mapped, for .fog) reload.
  std::string graph_text;
  std::string graph_file;
  uint64_t graph_fingerprint = 0;
  std::shared_ptr<TypeRegistry> registry;
  BallCache ball_cache;

  // Registered model handles. `parsed` is filled lazily after a re-warm;
  // on the learn path the already-built hypothesis is stored directly.
  struct ModelEntry {
    std::string text;
    std::optional<Hypothesis> parsed;
    // Per-model evaluation telemetry, surfaced by get-model. Wall-clock
    // only: attaching an EvalStats sink would route the hot path through
    // the engines' slow counting lane.
    int64_t evals = 0;             // example/tuple evaluations so far
    double exec_ms = 0.0;          // cumulative evaluation wall time
    double lower_ms = 0.0;         // bytecode lowering cost (VM, once)
    int64_t vm_instructions = 0;   // fast-lane program size (VM only)
    int64_t vm_superinstructions = 0;

    // Folds `count` evaluations of `run` into the telemetry.
    void RecordEvals(int64_t count, const EvalRun& run) {
      evals += count;
      exec_ms += run.exec_ms;
      lower_ms = run.cached.lower_ms;
      const LoweredPlan* bytecode = run.cached.bytecode.get();
      if (bytecode != nullptr && bytecode->supported) {
        vm_instructions = static_cast<int64_t>(bytecode->fast.code.size());
        vm_superinstructions = bytecode->superinstructions;
      }
    }
  };
  std::map<uint64_t, ModelEntry> models;  // ordered: stable listing/journal
  uint64_t next_model_id = 1;

  // Bounded learn dedup window, oldest first: request-id → the encoded
  // response payload that was acknowledged for it.
  std::deque<std::pair<std::string, std::string>> learn_dedup;

  // Set by close-session while an in-flight request still holds the
  // object: suppresses journal writes that would resurrect the file.
  bool closed = false;

  // Bytes of the last journaled record charged against `mem` (the durable
  // state is part of the session's footprint; re-charged on every save).
  int64_t journal_charged = 0;

  void ChargeJournal(int64_t bytes) {
    mem->Release(journal_charged);
    journal_charged = bytes;
    mem->Charge(bytes);
  }

  // Warm per-graph evaluators, keyed by plan identity (the plan cache
  // hands out stable shared_ptrs; a recompiled plan gets a fresh
  // evaluator). The EngineEvaluator holds the whole cache entry, so plan
  // and bytecode stay alive even if the plan cache evicts them. Bounded:
  // cleared wholesale when it outgrows kMaxWarmEvaluators — per-graph
  // memos are cheap to rebuild.
  static constexpr size_t kMaxWarmEvaluators = 64;
  std::unordered_map<const CompiledFormula*, EngineEvaluator> evaluators;

  EngineEvaluator* WarmEvaluator(const CachedPlan& cached,
                                 const EvalOptions& options) {
    auto it = evaluators.find(cached.plan.get());
    if (it != evaluators.end()) return &it->second;
    if (evaluators.size() >= kMaxWarmEvaluators) evaluators.clear();
    auto [pos, inserted] = evaluators.emplace(
        std::piecewise_construct,
        std::forward_as_tuple(cached.plan.get()),
        std::forward_as_tuple(cached, graph, options));
    (void)inserted;
    return &pos->second;
  }

  // The durable view of this session, in journal layout.
  SessionRecord ToRecord() const {
    SessionRecord record;
    record.id = id;
    record.graph_text = graph_text;
    record.graph_file = graph_file;
    record.graph_fingerprint = graph_fingerprint;
    record.next_model_id = next_model_id;
    record.models.reserve(models.size());
    for (const auto& [model_id, entry] : models) {
      record.models.emplace_back(model_id, entry.text);
    }
    record.learns.assign(learn_dedup.begin(), learn_dedup.end());
    return record;
  }

  std::mutex mu;
};

// What one request's handler works with. Dispatch resolves the session
// before the handler runs; the handler parses the governor limits itself,
// at the point of its validation order where a malformed deadline-ms or
// max-work is reported, and the governor is built on first use.
struct Server::RequestContext {
  RequestContext(const Message& request, const ServerOptions& options)
      : request(request), options(options) {}

  const Message& request;
  const ServerOptions& options;
  // The "session" field, when present and strict decimal.
  std::optional<uint64_t> session_id;
  // The warm session of a SessionUse::kLive op.
  std::shared_ptr<Session> session;
  // Governor limits; learn adds its memory budget before Governor().
  GovernorLimits limits;
  bool governed = false;
  std::optional<ResourceGovernor> governor;  // see Governor()

  // Parses deadline-ms / max-work into `limits`. Server caps clamp the
  // request; with a cap set, a request asking for nothing still runs
  // capped — the caps are the operator's protection against a tenant
  // monopolising the daemon. False with a code-64 *error on a malformed
  // value.
  bool ParseLimits(Message* error) {
    int64_t deadline_ms = kNoLimit;
    int64_t max_work = kNoLimit;
    std::string problem;
    if (ParseInt64Field(request, "deadline-ms", kNoLimit, &deadline_ms,
                        &problem) &&
        ParseInt64Field(request, "max-work", kNoLimit, &max_work,
                        &problem)) {
      if (deadline_ms != kNoLimit && deadline_ms < 0) {
        problem = "field 'deadline-ms' must be >= 0";
      } else if (max_work != kNoLimit && max_work <= 0) {
        problem = "field 'max-work' must be positive";
      }
    }
    if (!problem.empty()) {
      *error = MakeError(kExitUsage, problem);
      return false;
    }
    const auto clamp = [](int64_t value, int64_t cap) {
      return cap != kNoLimit && (value == kNoLimit || value > cap) ? cap
                                                                   : value;
    };
    limits.deadline_ms = clamp(deadline_ms, options.max_deadline_ms);
    limits.max_work = clamp(max_work, options.max_work);
    governed = limits.deadline_ms != kNoLimit || limits.max_work != kNoLimit;
    return true;
  }

  // The request's governor, built from `limits` on first use (its clock
  // starts then); nullptr when nothing limits the request.
  ResourceGovernor* Governor() {
    if (governed && !governor.has_value()) governor.emplace(limits);
    return governor.has_value() ? &*governor : nullptr;
  }

  // Appends work-used when the request ran governed.
  void AddWorkUsed(Message* response) const {
    if (governor.has_value()) {
      response->Set("work-used", std::to_string(governor->work_used()));
    }
  }

  // Evaluate/query options; plans compile under these (no governor).
  EvalOptions ServingEvalOptions() const {
    EvalOptions eval_options;
    eval_options.missing_color_is_false = true;  // external model files
    eval_options.engine = options.eval_engine;
    return eval_options;
  }

  // A registered model handle of the session; with `parse`, its
  // hypothesis is parsed on first use after a re-warm. The caller holds
  // the session lock. Null with *error on an unknown id (code 64) or an
  // unparsable journaled model (code 65).
  Session::ModelEntry* ResolveModel(uint64_t model_id, Message* error,
                                    bool parse = true) {
    auto it = session->models.find(model_id);
    if (it == session->models.end()) {
      *error = MakeError(kExitUsage, "unknown model-id " +
                                         std::to_string(model_id) +
                                         " in session " +
                                         std::to_string(*session_id));
      return nullptr;
    }
    Session::ModelEntry& entry = it->second;
    if (parse && !entry.parsed.has_value()) {
      StatusOr<Hypothesis> reparsed = ParseHypothesis(entry.text);
      if (!reparsed.ok()) {
        *error = MakeErrorFromStatus(DataLossError(
            "journaled model " + std::to_string(model_id) +
            " does not parse: " + reparsed.status().message()));
        return nullptr;
      }
      entry.parsed = *std::move(reparsed);
    }
    return &entry;
  }

  // The evaluation core of evaluate and query: evaluates `cached` on
  // tuple ++ params for each tuple, in order, under the request's
  // governor. Ungoverned runs use the session's warm evaluator (and its
  // per-graph memo); a governed run uses a throwaway one so the warm
  // evaluator never observes a trip. A trip stops the run and marks
  // `response` partial. The caller holds the session lock.
  EvalRun RunGoverned(const CachedPlan& cached,
                      std::span<const Vertex> params,
                      std::span<const std::span<const Vertex>> tuples,
                      Message* response) {
    EvalOptions eval_options = ServingEvalOptions();
    ResourceGovernor* governor = Governor();
    eval_options.governor = governor;
    std::optional<EngineEvaluator> scratch;
    EngineEvaluator* evaluator =
        governor != nullptr
            ? &scratch.emplace(cached, session->graph, eval_options)
            : session->WarmEvaluator(cached, eval_options);
    EvalRun run;
    run.cached = cached;
    std::vector<Vertex> env;
    const auto exec_start = std::chrono::steady_clock::now();
    for (std::span<const Vertex> tuple : tuples) {
      env.assign(tuple.begin(), tuple.end());
      env.insert(env.end(), params.begin(), params.end());
      const bool verdict = evaluator->Eval(env);
      if (governor != nullptr && governor->Interrupted()) {
        run.interrupted = true;
        break;
      }
      run.verdicts.push_back(verdict);
    }
    run.exec_ms = MsSince(exec_start);
    if (run.interrupted) MarkPartial(response, governor->status());
    return run;
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      mem_budget_(options_.mem_budget_bytes),
      plan_cache_(options_.plan_cache_bytes),
      store_(options_.state_dir) {
  FOLEARN_CHECK_GE(options_.max_inflight, 1)
      << "max_inflight must admit at least one request";
  FOLEARN_CHECK_GE(options_.dedup_window, 1)
      << "dedup_window must hold at least one entry";
  FOLEARN_CHECK_GE(options_.mem_watchdog_ms, 1)
      << "mem_watchdog_ms must be positive";
  store_.set_crash_at_journal_write(options_.crash_at_journal_write);
  plan_cache_.set_mem_account(&mem_budget_);
  plan_cache_.set_read_through(&cache_read_through_);
  // A pinned tier gates requests from the very first dispatch, before the
  // watchdog's first tick.
  options_.force_tier = std::min(options_.force_tier,
                                 static_cast<int>(PressureTier::kBlack));
  if (options_.force_tier >= 0) {
    tier_.store(options_.force_tier, std::memory_order_relaxed);
    cache_read_through_.store(CurrentTier() >= PressureTier::kYellow,
                              std::memory_order_relaxed);
  }
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
}

Status Server::Start() {
  Status path_ok = ValidateSocketPath(options_.socket_path);
  if (!path_ok.ok()) return path_ok;
  Status store_ok = store_.Init();
  if (!store_ok.ok()) return store_ok;
  if (store_.enabled()) {
    // Recovery: index every journaled session as a cold slot. Graphs are
    // parsed lazily on first use, so a daemon with thousands of journaled
    // sessions still restarts instantly.
    StatusOr<std::vector<uint64_t>> ids = store_.ListSessions();
    if (!ids.ok()) return ids.status();
    StatusOr<uint64_t> next = store_.LoadNextSessionId();
    if (!next.ok()) return next.status();
    const int64_t now = NowMs();
    uint64_t max_id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (uint64_t id : *ids) {
        auto slot = std::make_shared<SessionSlot>();
        slot->journaled = true;
        slot->last_used_ms.store(now, std::memory_order_relaxed);
        sessions_.emplace(id, std::move(slot));
        max_id = std::max(max_id, id);
      }
      // Ids must never be reused across restarts — a stale client id
      // must map to "unknown session", never to someone else's graph.
      next_session_id_ = std::max(*next, max_id + 1);
    }
    if (!ids->empty()) {
      BumpStat(&ServerStats::sessions_recovered,
               static_cast<int64_t>(ids->size()));
    }
  }
  sockaddr_un addr{};
  if (::pipe(wake_pipe_) != 0) {
    return UnavailableError(std::string("pipe failed: ") +
                            std::strerror(errno));
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return UnavailableError(std::string("socket failed: ") +
                            std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a past run
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return UnavailableError("bind failed on " + options_.socket_path + ": " +
                            std::strerror(errno));
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    return UnavailableError(std::string("listen failed: ") +
                            std::strerror(errno));
  }
  return OkStatus();
}

void Server::Shutdown() {
  stopping_.store(true, std::memory_order_release);
  // Wake every poller. The byte is never drained, so the pipe stays
  // readable and all current and future polls return immediately. One
  // write(2) — async-signal-safe.
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::Serve() {
  FOLEARN_CHECK_GE(listen_fd_, 0) << "Serve() before Start()";
  // The memory watchdog runs for the lifetime of the serve loop. It is
  // started even when ungoverned: it then only refreshes the RSS gauge.
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  // With a session TTL, the accept loop doubles as the eviction sweeper:
  // poll wakes at a fraction of the TTL so idle sessions are demoted
  // promptly even when no connection arrives.
  int poll_timeout_ms = -1;
  if (options_.session_ttl_ms != kNoLimit) {
    poll_timeout_ms = static_cast<int>(std::clamp<int64_t>(
        options_.session_ttl_ms / 2, 10, 1000));
  }
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int ready = ::poll(fds, 2, poll_timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0 ||
        stopping_.load(std::memory_order_acquire)) {
      break;
    }
    if (options_.session_ttl_ms != kNoLimit) EvictIdleSessions();
    if ((fds[0].revents & POLLIN) == 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Every client call is typically its own connection: join finished
    // connection threads as we go, or each would pin its stack until
    // shutdown.
    connections_.remove_if([](Connection& connection) {
      if (!connection.done.load(std::memory_order_acquire)) return false;
      connection.thread.join();
      return true;
    });
    Connection& connection = connections_.emplace_back();
    connection.thread = std::thread([this, fd, &connection] {
      ConnectionLoop(fd);
      connection.done.store(true, std::memory_order_release);
    });
  }
  // Drain: no new connections; unblock in-flight reads; join everything.
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
  for (Connection& connection : connections_) connection.thread.join();
  connections_.clear();
  stopping_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
}

void Server::WatchdogLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    UpdatePressure();
    // Sleep in small slices so Shutdown() is prompt at any cadence.
    int64_t slept = 0;
    while (slept < options_.mem_watchdog_ms &&
           !stopping_.load(std::memory_order_acquire)) {
      const int64_t slice = std::min<int64_t>(
          20, options_.mem_watchdog_ms - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      slept += slice;
    }
  }
}

void Server::UpdatePressure() {
  const int64_t accounted = mem_budget_.used();
  const int64_t rss = ReadRssBytes();
  // Classify the *worse* of what we account and what the kernel charges
  // us for: accounted bytes catch growth RSS hasn't paged in yet, RSS
  // catches everything the accounts cannot see (mmap'd graphs aside —
  // their pages are reclaimable, which is exactly why mmap-backed
  // load-graph stays admitted under pressure).
  const int64_t used = std::max(accounted, rss);
  const PressureTier tier =
      options_.force_tier >= 0
          ? static_cast<PressureTier>(options_.force_tier)
          : ClassifyPressure(used, options_.mem_budget_bytes,
                             options_.pressure);
  const auto previous = static_cast<PressureTier>(tier_.exchange(
      static_cast<int>(tier), std::memory_order_relaxed));
  // Yellow and above: caches serve hits but stop growing.
  cache_read_through_.store(tier >= PressureTier::kYellow,
                            std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.rss_bytes = rss;
    stats_.mem_used_bytes = accounted;
    stats_.mem_tier = static_cast<int64_t>(tier);
    if (tier != previous) ++stats_.tier_transitions;
  }
  if (tier >= PressureTier::kRed) {
    // Reclaim: shrink the shared plan cache to a floor and demote idle
    // warm state. Both are idempotent, so re-running them every tick at
    // red costs nothing once the state is drained.
    plan_cache_.Trim(options_.plan_cache_bytes >= 0
                         ? options_.plan_cache_bytes / 4
                         : 0);
    EvictWarmStateUnderPressure();
  }
}

void Server::EvictWarmStateUnderPressure() {
  // Oldest-idle first. The red threshold is the reclamation target; with
  // a pinned tier (tests) or no budget there is no target and every idle
  // session is swept.
  const int64_t target =
      options_.mem_budget_bytes != kNoLimit && options_.force_tier < 0
          ? static_cast<int64_t>(static_cast<double>(
                                     options_.mem_budget_bytes) *
                                 options_.pressure.red)
          : 0;
  std::vector<std::pair<int64_t, std::shared_ptr<SessionSlot>>> idle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    idle.reserve(sessions_.size());
    for (auto& [id, slot] : sessions_) {
      idle.emplace_back(
          slot->last_used_ms.load(std::memory_order_relaxed), slot);
    }
  }
  std::sort(idle.begin(), idle.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  int64_t evicted = 0;
  for (auto& [last_used, slot] : idle) {
    if (target > 0 && mem_budget_.used() <= target) break;
    // Memory-only sessions keep graph + models: dropping them is data
    // loss, which red never inflicts.
    if (DemoteSlot(*slot, INT64_MAX, /*drop_memory_only=*/false)) ++evicted;
  }
  if (evicted > 0) BumpStat(&ServerStats::warm_evictions, evicted);
}

std::shared_ptr<Server::Session> Server::NewSession(uint64_t id, Graph graph,
                                                   std::string graph_text,
                                                   std::string graph_file,
                                                   uint64_t fingerprint) {
  auto session = std::make_shared<Session>(
      std::move(graph), std::move(graph_text), options_.ball_cache_bytes);
  session->id = id;
  session->graph_file = std::move(graph_file);
  session->graph_fingerprint = fingerprint;
  session->mem = std::make_unique<MemBudget>(
      options_.session_mem_bytes == kNoLimit ? kNoMemLimit
                                             : options_.session_mem_bytes,
      &mem_budget_);
  // Correctness state (interned types) charges forcibly; the governor
  // turns overshoot into a kResourceExhausted cut. The ball cache is pure
  // cache: refused charges serve uncached, and the read-through flag
  // freezes growth at yellow.
  session->registry->set_mem_account(session->mem.get());
  session->ball_cache.set_mem_account(session->mem.get());
  session->ball_cache.set_read_through(&cache_read_through_);
  // The graph itself: text graphs own their parse; .fog graphs are mmap'd
  // and reclaimable, so only the text share is charged.
  const int64_t graph_share =
      static_cast<int64_t>(session->graph_text.size());
  if (graph_share > 0) session->mem->Charge(graph_share);
  return session;
}

void Server::ConnectionLoop(int fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // graceful stop
    if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    StatusOr<Message> request = ReadFrame(fd);
    if (!request.ok()) {
      // Clean close (kNotFound) ends the connection silently; a corrupt
      // or torn frame gets one last diagnostic — the stream position is
      // untrusted afterwards, so the connection closes either way. Only
      // the connection dies: sessions and admission slots are unharmed.
      if (request.status().code() != StatusCode::kNotFound) {
        if (request.status().code() == StatusCode::kDataLoss) {
          (void)WriteFrame(fd, MakeErrorFromStatus(request.status()));
        }
        BumpStat(&ServerStats::disconnects);
      }
      break;
    }
    const bool is_shutdown = request->Get("op") == "shutdown";
    Message response = Dispatch(*request);
    if (!WriteFrame(fd, response).ok()) {
      // Peer vanished between request and response (EPIPE via
      // MSG_NOSIGNAL, never SIGPIPE). Drop the connection only.
      BumpStat(&ServerStats::disconnects);
      break;
    }
    if (is_shutdown) {
      Shutdown();
      break;
    }
  }
  ::close(fd);
}

// The single list of protocol operations.
const Server::Op Server::kOps[] = {
    {"ping", false, SessionUse::kNone, &Server::HandlePing},
    {"load-graph", true, SessionUse::kNone, &Server::HandleLoadGraph},
    {"close-session", false, SessionUse::kId, &Server::HandleCloseSession},
    {"learn", true, SessionUse::kLive, &Server::HandleLearn},
    {"evaluate", true, SessionUse::kLive, &Server::HandleEvaluate},
    {"query", true, SessionUse::kLive, &Server::HandleQuery},
    {"get-model", false, SessionUse::kLive, &Server::HandleGetModel},
    {"list-models", false, SessionUse::kLive, &Server::HandleListModels},
    {"stats", false, SessionUse::kNone, &Server::HandleStats},
    {"shutdown", false, SessionUse::kNone, &Server::HandleShutdown},
};

Message Server::Dispatch(const Message& request) {
  const std::string op_name = request.Get("op");
  const Op* op = nullptr;
  for (const Op& candidate : kOps) {
    if (op_name == candidate.name) op = &candidate;
  }
  const bool substantive = op != nullptr && op->substantive;
  // Resolves the session the op takes, then runs its handler.
  const auto run = [&]() -> Message {
    if (op == nullptr) {
      return MakeError(kExitUsage, "unknown op '" + op_name + "'");
    }
    RequestContext ctx(request, options_);
    const std::string* raw = request.Find("session");
    if (uint64_t id = 0; raw != nullptr && ParseU64(*raw, &id)) {
      ctx.session_id = id;
    }
    if (op->session != SessionUse::kNone) {
      if (raw == nullptr) {
        return MakeError(kExitUsage, "request requires a 'session' field");
      }
      if (!ctx.session_id.has_value()) {
        return MakeError(kExitUsage, "invalid session id '" + *raw + "'");
      }
    }
    if (op->session == SessionUse::kLive) {
      StatusOr<std::shared_ptr<Session>> acquired =
          AcquireSession(*ctx.session_id);
      if (!acquired.ok()) {
        // An id that is neither live nor journaled is a usage error; a
        // corrupt or unreadable journal keeps its own status semantics.
        const Status& status = acquired.status();
        return MakeError(status.code() == StatusCode::kNotFound
                             ? kExitUsage
                             : StatusExitCode(status),
                         status.message());
      }
      ctx.session = *std::move(acquired);
    }
    return (this->*op->handler)(ctx);
  };
  Message response;
  if (substantive && CurrentTier() == PressureTier::kBlack) {
    // Black tier: memory is critically scarce, so every substantive
    // request is shed retry-safe while heartbeats, stats, close-session
    // and shutdown — the ops that observe, relieve, or end the pressure —
    // stay admitted.
    response = MakeShed(
        "memory pressure (black): serving heartbeats only; retry the "
        "request",
        PressureTier::kBlack);
  } else if (substantive &&
             inflight_.fetch_add(1, std::memory_order_acq_rel) >=
                 options_.max_inflight) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    response = MakeShed("server at max-inflight capacity; retry the request");
  } else {
    response = run();
    if (substantive) inflight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  RecordOutcome(response);
  return response;
}

Message Server::MakeShed(std::string_view error,
                         std::optional<PressureTier> tier) {
  Message response;
  response.Set("status", kStatusShed);
  response.Set("code", tier.has_value() ? std::to_string(kExitTempFail)
                                        : std::string("3"));
  if (tier.has_value()) {
    response.Set("tier", PressureTierName(*tier));
    BumpStat(&ServerStats::mem_shed);
  }
  response.Set("error", error);
  return response;
}

void Server::RecordOutcome(const Message& response) {
  const std::string status = response.Get("status");
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests;
  if (status == kStatusOk) {
    ++stats_.ok;
  } else if (status == kStatusPartial) {
    ++stats_.partial;
  } else if (status == kStatusShed) {
    ++stats_.shed;
  } else {
    ++stats_.errors;
  }
}

void Server::BumpStat(int64_t ServerStats::*counter, int64_t delta) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*counter += delta;
}

Message Server::HandlePing(RequestContext& ctx) {
  Message response = MakeOk();
  response.Set("payload", ctx.request.Get("payload"));
  // Heartbeat: a ping naming a session refreshes its idle clock without
  // re-warming a cold slot (no graph parse on the control plane).
  if (ctx.request.Has("session")) {
    std::shared_ptr<SessionSlot> slot =
        ctx.session_id.has_value() ? FindSlot(*ctx.session_id) : nullptr;
    if (slot != nullptr) {
      slot->last_used_ms.store(NowMs(), std::memory_order_relaxed);
    }
    response.Set("session-known", slot != nullptr ? "1" : "0");
  }
  return response;
}

std::shared_ptr<Server::SessionSlot> Server::FindSlot(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

StatusOr<std::shared_ptr<Server::Session>> Server::AcquireSession(
    uint64_t id) {
  const auto unknown = [id] {
    return NotFoundError("unknown session " + std::to_string(id));
  };
  std::shared_ptr<SessionSlot> slot = FindSlot(id);
  if (slot == nullptr) return unknown();
  slot->last_used_ms.store(NowMs(), std::memory_order_relaxed);
  std::lock_guard<std::mutex> slot_lock(slot->mu);
  if (slot->live != nullptr) return slot->live;
  if (!slot->journaled) return unknown();
  // Cold journaled slot: re-warm from the store. The journal is our own
  // acknowledged output, so corruption here is real data loss and is
  // reported as such, not masked as "unknown session".
  StatusOr<SessionRecord> record = store_.Load(id);
  if (!record.ok()) {
    return record.status().code() == StatusCode::kNotFound
               ? unknown()
               : record.status();
  }
  StatusOr<Graph> graph = [&]() -> StatusOr<Graph> {
    if (record->graph_file.empty()) return ParseGraph(record->graph_text);
    // File-backed session: reload (mmap for .fog) and verify the
    // fingerprint — a swapped file must not silently answer for the graph
    // the client registered.
    uint64_t fingerprint = 0;
    StatusOr<Graph> loaded = LoadGraphAuto(record->graph_file, &fingerprint);
    if (loaded.ok() && fingerprint != record->graph_fingerprint) {
      return DataLossError(
          "graph file '" + record->graph_file + "' for session " +
          std::to_string(id) + " has fingerprint " +
          std::to_string(fingerprint) + ", journal recorded " +
          std::to_string(record->graph_fingerprint));
    }
    return loaded;
  }();
  if (!graph.ok()) {
    return DataLossError("journaled graph for session " + std::to_string(id) +
                         " does not load: " + graph.status().message());
  }
  const int64_t record_bytes = ApproxRecordBytes(*record);
  std::shared_ptr<Session> session = NewSession(
      id, *std::move(graph), std::move(record->graph_text),
      std::move(record->graph_file), record->graph_fingerprint);
  session->next_model_id = record->next_model_id;
  for (auto& [model_id, text] : record->models) {
    session->models.emplace(model_id,
                            Session::ModelEntry{std::move(text), {}});
  }
  for (auto& entry : record->learns) {
    session->learn_dedup.push_back(std::move(entry));
  }
  session->ChargeJournal(record_bytes);
  slot->live = session;
  BumpStat(&ServerStats::sessions_rewarmed);
  return session;
}

void Server::EvictIdleSessions() {
  const int64_t idle_before = NowMs() - options_.session_ttl_ms;
  std::vector<uint64_t> to_erase;
  int64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, slot] : sessions_) {
      if (!DemoteSlot(*slot, idle_before, /*drop_memory_only=*/true)) {
        continue;
      }
      ++evicted;
      if (!slot->journaled) to_erase.push_back(id);
    }
    for (uint64_t id : to_erase) sessions_.erase(id);
  }
  if (evicted > 0) BumpStat(&ServerStats::sessions_evicted, evicted);
}

bool Server::DemoteSlot(SessionSlot& slot, int64_t idle_before,
                        bool drop_memory_only) {
  std::unique_lock<std::mutex> slot_lock(slot.mu, std::try_to_lock);
  if (!slot_lock.owns_lock()) return false;  // busy: next sweep
  if (slot.live == nullptr) return false;    // already cold
  if (slot.last_used_ms.load(std::memory_order_relaxed) >= idle_before) {
    return false;
  }
  // use_count == 1 under the slot lock means no handler holds the session
  // and none can acquire it while we hold the lock — the demotion cannot
  // yank state from under an in-flight request.
  if (slot.live.use_count() != 1) return false;
  if (slot.journaled || drop_memory_only) {
    slot.live.reset();
  } else {
    std::lock_guard<std::mutex> session_lock(slot.live->mu);
    slot.live->evaluators.clear();
    slot.live->ball_cache.Clear();
  }
  return true;
}

Message Server::HandleLoadGraph(RequestContext& ctx) {
  const Message& request = ctx.request;
  const std::string* text = request.Find("graph");
  const std::string* file = request.Find("graph-file");
  if (text == nullptr && file == nullptr) {
    return MakeError(kExitUsage,
                     "load-graph requires a 'graph' or 'graph-file' field");
  }
  if (text != nullptr && file != nullptr) {
    return MakeError(kExitUsage,
                     "load-graph takes 'graph' or 'graph-file', not both");
  }
  // Yellow and above: refuse new *heap-resident* graphs retry-safe. A
  // .fog file is memory-mapped — its pages are shared and reclaimable —
  // so mmap-backed loads stay admitted until black.
  const PressureTier tier = CurrentTier();
  if (tier >= PressureTier::kYellow) {
    bool mmap_backed = false;
    if (file != nullptr) {
      char magic[8] = {};
      FILE* probe = std::fopen(file->c_str(), "rb");
      if (probe != nullptr) {
        const size_t got = std::fread(magic, 1, sizeof(magic), probe);
        std::fclose(probe);
        mmap_backed = LooksLikeFog(std::string_view(magic, got));
      }
    }
    if (!mmap_backed) {
      return MakeShed(std::string("memory pressure (") +
                          PressureTierName(tier) +
                          "): non-mmap load-graph shed; retry later or "
                          "load a .fog file",
                      tier);
    }
  }
  uint64_t fingerprint = 0;
  StatusOr<Graph> graph =
      file != nullptr ? LoadGraphAuto(*file, &fingerprint)
                      : ParseGraph(*text);
  if (!graph.ok()) return MakeErrorFromStatus(graph.status());
  uint64_t id = 0;
  {
    // Allocation and the meta write stay under the table lock so the
    // journaled next-session-id is monotone even under concurrent loads.
    std::lock_guard<std::mutex> lock(mu_);
    id = next_session_id_++;
    Status meta = store_.SaveNextSessionId(next_session_id_);
    if (!meta.ok()) return MakeErrorFromStatus(meta);
  }
  std::shared_ptr<Session> session =
      NewSession(id, *std::move(graph), text != nullptr ? *text : "",
                 file != nullptr ? *file : "", fingerprint);
  // Journal before acknowledging: once the client sees the id, a restart
  // must be able to serve it.
  if (store_.enabled()) {
    const SessionRecord record = session->ToRecord();
    Status saved = store_.Save(record);
    if (!saved.ok()) return MakeErrorFromStatus(saved);
    session->ChargeJournal(ApproxRecordBytes(record));
  }
  auto slot = std::make_shared<SessionSlot>();
  slot->live = session;
  slot->journaled = store_.enabled();
  slot->last_used_ms.store(NowMs(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.emplace(id, std::move(slot));
  }
  BumpStat(&ServerStats::sessions_opened);
  Message response = MakeOk();
  response.Set("session", std::to_string(id));
  response.Set("order", std::to_string(session->graph.order()));
  return response;
}

Message Server::HandleCloseSession(RequestContext& ctx) {
  const uint64_t id = *ctx.session_id;
  std::shared_ptr<SessionSlot> slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      return MakeError(kExitUsage, "unknown session " + std::to_string(id));
    }
    slot = it->second;
    sessions_.erase(it);
  }
  std::shared_ptr<Session> live;
  {
    std::lock_guard<std::mutex> slot_lock(slot->mu);
    live = std::move(slot->live);
  }
  Status removed;
  if (live != nullptr) {
    // Mark closed under the session lock so an in-flight learn that
    // still holds the object cannot resurrect the journal file after the
    // remove below.
    std::lock_guard<std::mutex> session_lock(live->mu);
    live->closed = true;
    removed = store_.Remove(id);
  } else {
    removed = store_.Remove(id);
  }
  if (!removed.ok()) return MakeErrorFromStatus(removed);
  BumpStat(&ServerStats::sessions_closed);
  return MakeOk();
}

Message Server::HandleLearn(RequestContext& ctx) {
  const Message& request = ctx.request;
  Session& session = *ctx.session;
  const std::string* data_text = request.Find("data");
  if (data_text == nullptr) {
    return MakeError(kExitUsage, "learn requires a 'data' field");
  }
  const std::string request_id = request.Get("request-id");
  if (request_id.size() > 256) {
    return MakeError(kExitUsage, "field 'request-id' exceeds 256 bytes");
  }
  StatusOr<TrainingSet> data = ParseTrainingSet(*data_text);
  if (!data.ok()) return MakeErrorFromStatus(data.status());

  ErmOptions options;
  std::string field_error;
  int ell = 0;
  if (!ParseIntField(request, "rank", 1, &options.rank, &field_error) ||
      !ParseIntField(request, "radius", -1, &options.radius, &field_error) ||
      !ParseIntField(request, "ell", 0, &ell, &field_error) ||
      !ParseIntField(request, "threads", 1, &options.threads,
                     &field_error)) {
    return MakeError(kExitUsage, field_error);
  }
  if (options.rank < 0) {
    return MakeError(kExitUsage, "field 'rank' must be >= 0");
  }
  if (options.radius < -1) {
    return MakeError(kExitUsage,
                     "field 'radius' must be >= 0 (or -1 for automatic)");
  }
  if (ell < 0) return MakeError(kExitUsage, "field 'ell' must be >= 0");
  if (options.threads < 0) {
    return MakeError(kExitUsage, "field 'threads' must be >= 0");
  }
  const std::string learner = request.Get("learner", "brute");
  if (learner != "brute") {
    return MakeError(kExitUsage,
                     "unsupported learner '" + learner +
                         "' (the server implements 'brute')");
  }
  Message error;
  if (!ctx.ParseLimits(&error)) return error;
  // Memory governance: with a session or process byte budget the learn
  // runs governed against the session's account — an overflowing sweep is
  // cut at its next checkpoint with run-status=resource-exhausted and the
  // best hypothesis so far, the same anytime contract as deadline/work.
  if (options_.session_mem_bytes != kNoLimit ||
      options_.mem_budget_bytes != kNoLimit) {
    ctx.limits.mem_budget = session.mem.get();
    ctx.governed = true;
  }

  std::lock_guard<std::mutex> session_lock(session.mu);
  // Idempotent retries: a request-id the session has already acknowledged
  // replays the original response byte-identically — the learn (and its
  // model registration) must not run twice.
  if (!request_id.empty()) {
    for (const auto& [seen_id, payload] : session.learn_dedup) {
      if (seen_id != request_id) continue;
      StatusOr<Message> replay = DecodeMessage(payload);
      if (!replay.ok()) {
        return MakeErrorFromStatus(DataLossError(
            "journaled response for request-id '" + request_id +
            "' is corrupt: " + replay.status().message()));
      }
      BumpStat(&ServerStats::dedup_hits);
      replay->Set("deduped", "1");
      return *std::move(replay);
    }
  }
  Status tuples_ok = ValidateTuples(session.graph, *data);
  if (!tuples_ok.ok()) return MakeErrorFromStatus(tuples_ok);

  options.governor = ctx.Governor();
  // The session ball cache is single-threaded state; the library only
  // consults it on single-threaded scans anyway (parallel sweeps build
  // per-worker caches), so it is attached exactly then.
  if (options.threads == 1) options.ball_cache = &session.ball_cache;
  options.cache_bytes = options_.ball_cache_bytes;
  // Per-worker registry shards and ball caches of a parallel sweep charge
  // the session account too (released when the sweep returns).
  options.mem_budget = session.mem.get();

  ErmResult result =
      BruteForceErm(session.graph, *data, ell, options, session.registry);

  Message response = MakeOk();
  if (IsInterrupted(result.status)) MarkPartial(&response, result.status);
  Hypothesis hypothesis = result.hypothesis.ToExplicit();
  const std::string model_text = HypothesisToText(hypothesis);
  response.Set("model", model_text);
  response.Set("training-error", FormatDouble(result.training_error));
  response.Set("types-seen", std::to_string(result.distinct_types_seen));
  response.Set("tuples-tried",
               std::to_string(result.parameter_tuples_tried));
  ctx.AddWorkUsed(&response);

  // Model registration. Identical model text reuses its handle, so
  // repeated learns (warm benches, retried workloads) neither bloat the
  // table nor grow the journal.
  uint64_t model_id = 0;
  bool new_model = true;
  for (const auto& [existing_id, entry] : session.models) {
    if (entry.text == model_text) {
      model_id = existing_id;
      new_model = false;
      break;
    }
  }
  if (new_model) model_id = session.next_model_id;
  response.Set("model-id", std::to_string(model_id));

  // Durability: journal the candidate state (current + this mutation)
  // *before* mutating memory or acknowledging, so a journal failure
  // leaves both the file and the in-memory session unchanged.
  const bool new_dedup_entry = !request_id.empty();
  if (new_model || new_dedup_entry) {
    SessionRecord candidate = session.ToRecord();
    if (new_model) {
      candidate.next_model_id = model_id + 1;
      candidate.models.emplace_back(model_id, model_text);
    }
    if (new_dedup_entry) {
      while (static_cast<int>(candidate.learns.size()) >=
             options_.dedup_window) {
        candidate.learns.erase(candidate.learns.begin());
      }
      candidate.learns.emplace_back(request_id, EncodeMessage(response));
    }
    // Journal compaction: a record over either cap sheds its oldest model
    // handles — never the one this response references — before the
    // atomic rewrite below. Session journals otherwise grow without
    // bound under long-lived learn workloads; this keeps both the file
    // and the re-warm cost flat. The memory table mirrors the drop after
    // a successful save, so handles and journal never diverge.
    std::vector<uint64_t> compacted;
    if (options_.max_session_models != kNoLimit ||
        options_.journal_compact_bytes != kNoLimit) {
      const auto over_caps = [&]() {
        return (options_.max_session_models != kNoLimit &&
                static_cast<int64_t>(candidate.models.size()) >
                    options_.max_session_models) ||
               (options_.journal_compact_bytes != kNoLimit &&
                ApproxRecordBytes(candidate) >
                    options_.journal_compact_bytes);
      };
      size_t scan = 0;  // candidate.models is id-ordered: oldest first
      while (over_caps() && scan < candidate.models.size()) {
        if (candidate.models[scan].first == model_id) {
          ++scan;
          continue;
        }
        compacted.push_back(candidate.models[scan].first);
        candidate.models.erase(candidate.models.begin() +
                               static_cast<ptrdiff_t>(scan));
      }
    }
    if (store_.enabled() && !session.closed) {
      Status journaled = store_.Save(candidate);
      if (!journaled.ok()) return MakeErrorFromStatus(journaled);
      session.ChargeJournal(ApproxRecordBytes(candidate));
    }
    // The memory table now mirrors the journaled candidate.
    for (uint64_t dropped : compacted) session.models.erase(dropped);
    if (!compacted.empty()) {
      BumpStat(&ServerStats::models_compacted,
               static_cast<int64_t>(compacted.size()));
      BumpStat(&ServerStats::journal_compactions);
    }
    if (new_model) {
      session.next_model_id = model_id + 1;
      session.models.emplace(
          model_id,
          Session::ModelEntry{model_text, std::move(hypothesis)});
      BumpStat(&ServerStats::models_registered);
    }
    if (new_dedup_entry) {
      session.learn_dedup.assign(
          std::make_move_iterator(candidate.learns.begin()),
          std::make_move_iterator(candidate.learns.end()));
    }
  }
  return response;
}

Message Server::HandleEvaluate(RequestContext& ctx) {
  const Message& request = ctx.request;
  Session& session = *ctx.session;
  const std::string* model_text = request.Find("model");
  const bool by_handle = request.Has("model-id");
  if ((model_text == nullptr) == !by_handle) {
    return MakeError(kExitUsage,
                     "evaluate requires exactly one of 'model' and "
                     "'model-id', plus 'data'");
  }
  const std::string* data_text = request.Find("data");
  if (data_text == nullptr) {
    return MakeError(kExitUsage, "evaluate requires a 'data' field");
  }
  Message error;
  uint64_t model_id = 0;
  if (by_handle && !ParseModelIdField(request, &model_id, &error)) {
    return error;
  }
  StatusOr<TrainingSet> data = ParseTrainingSet(*data_text);
  if (!data.ok()) return MakeErrorFromStatus(data.status());
  if (!ctx.ParseLimits(&error)) return error;

  std::lock_guard<std::mutex> session_lock(session.mu);
  Status tuples_ok = ValidateTuples(session.graph, *data);
  if (!tuples_ok.ok()) return MakeErrorFromStatus(tuples_ok);
  // The handle path reuses the registered, already-parsed model (the
  // parse is the cost the handle eliminates); the text path parses per
  // request, exactly as the CLI would.
  std::optional<Hypothesis> parsed_from_text;
  Session::ModelEntry* entry = nullptr;
  const Hypothesis* hypothesis = nullptr;
  if (by_handle) {
    entry = ctx.ResolveModel(model_id, &error);
    if (entry == nullptr) return error;
    hypothesis = &*entry->parsed;
  } else {
    StatusOr<Hypothesis> from_text = ParseHypothesis(*model_text);
    if (!from_text.ok()) return MakeErrorFromStatus(from_text.status());
    hypothesis = &parsed_from_text.emplace(*std::move(from_text));
  }
  std::vector<std::span<const Vertex>> tuples;
  tuples.reserve(data->size());
  for (const LabeledExample& example : *data) {
    tuples.emplace_back(example.tuple);
  }
  Status fits = CheckModelFits(*hypothesis, session.graph, tuples, "example");
  if (!fits.ok()) return MakeErrorFromStatus(fits);

  Message response = MakeOk();
  const EvalRun run = ctx.RunGoverned(
      plan_cache_.GetOrCompile(hypothesis->formula, hypothesis->AllVars(),
                               ctx.ServingEvalOptions()),
      hypothesis->parameters, tuples, &response);
  const int64_t seen = static_cast<int64_t>(run.verdicts.size());
  int64_t wrong = 0;
  for (int64_t i = 0; i < seen; ++i) {
    if (run.verdicts[i] != (*data)[i].label) ++wrong;
  }
  if (entry != nullptr) entry->RecordEvals(seen, run);
  const double error_rate =
      seen == 0 ? 1.0 : static_cast<double>(wrong) / static_cast<double>(seen);
  response.Set("error", FormatDouble(error_rate));
  response.Set("examples-seen", std::to_string(seen));
  if (by_handle) response.Set("model-id", std::to_string(model_id));
  ctx.AddWorkUsed(&response);
  return response;
}

Message Server::HandleQuery(RequestContext& ctx) {
  const Message& request = ctx.request;
  Session& session = *ctx.session;
  const std::string* sentence_text = request.Find("sentence");
  const bool by_handle = request.Has("model-id");
  if ((sentence_text == nullptr) == !by_handle) {
    return MakeError(kExitUsage,
                     "query requires exactly one of 'sentence' and "
                     "'model-id'");
  }
  Message error;
  if (!ctx.ParseLimits(&error)) return error;

  Message response = MakeOk();
  EvalRun run;
  if (by_handle) {
    // Handle form: result = the registered model's classification of the
    // request tuple (h_{φ,w̄}(v̄)) — a one-example evaluate, with zero
    // per-request parsing.
    uint64_t model_id = 0;
    if (!ParseModelIdField(request, &model_id, &error)) return error;
    const std::string* tuple_text = request.Find("tuple");
    if (tuple_text == nullptr) {
      return MakeError(kExitUsage,
                       "query by model-id requires a 'tuple' field");
    }
    std::vector<Vertex> tuple;
    std::string field_error;
    if (!ParseTupleField(*tuple_text, &tuple, &field_error)) {
      return MakeError(kExitUsage, field_error);
    }
    std::lock_guard<std::mutex> session_lock(session.mu);
    Session::ModelEntry* entry = ctx.ResolveModel(model_id, &error);
    if (entry == nullptr) return error;
    const Hypothesis& hypothesis = *entry->parsed;
    const std::span<const Vertex> tuples[] = {tuple};
    Status fits = CheckModelFits(hypothesis, session.graph, tuples, "tuple");
    if (!fits.ok()) return MakeErrorFromStatus(fits);
    response.Set("model-id", std::to_string(model_id));
    run = ctx.RunGoverned(
        plan_cache_.GetOrCompile(hypothesis.formula, hypothesis.AllVars(),
                                 ctx.ServingEvalOptions()),
        hypothesis.parameters, tuples, &response);
    // A cut query still counts as one evaluation of the handle.
    entry->RecordEvals(1, run);
  } else {
    std::string parse_error;
    std::optional<FormulaRef> sentence =
        ParseFormula(*sentence_text, &parse_error);
    if (!sentence.has_value()) {
      return MakeError(kExitDataError,
                       "cannot parse sentence: " + parse_error);
    }
    if (!(*sentence)->free_variables().empty()) {
      return MakeError(kExitDataError,
                       "query requires a sentence; '" +
                           (*sentence)->free_variables().front() +
                           "' occurs free");
    }
    const CachedPlan cached =
        plan_cache_.GetOrCompile(*sentence, {}, ctx.ServingEvalOptions());
    std::lock_guard<std::mutex> session_lock(session.mu);
    // Warm path: a repeated sentence is a per-graph memo hit — the
    // evaluator answers without touching the graph again.
    const std::span<const Vertex> no_tuple[] = {{}};
    run = ctx.RunGoverned(cached, {}, no_tuple, &response);
  }
  if (run.interrupted) {
    response.Set("result", "indeterminate");
  } else {
    response.Set("result", run.verdicts[0] ? "true" : "false");
  }
  ctx.AddWorkUsed(&response);
  return response;
}

Message Server::HandleGetModel(RequestContext& ctx) {
  Session& session = *ctx.session;
  if (!ctx.request.Has("model-id")) {
    return MakeError(kExitUsage, "get-model requires a 'model-id' field");
  }
  uint64_t model_id = 0;
  Message error;
  if (!ParseModelIdField(ctx.request, &model_id, &error)) return error;
  std::lock_guard<std::mutex> session_lock(session.mu);
  const Session::ModelEntry* entry =
      ctx.ResolveModel(model_id, &error, /*parse=*/false);
  if (entry == nullptr) return error;
  Message response = MakeOk();
  response.Set("model-id", std::to_string(model_id));
  response.Set("model", entry->text);
  // Evaluation telemetry accumulated by evaluate/query on this handle,
  // which always run on the server's engine; lower-ms and the vm-* fields
  // stay 0 unless the handle has run through the bytecode VM.
  response.Set("engine", EvalEngineName(options_.eval_engine));
  response.Set("evals", std::to_string(entry->evals));
  response.Set("exec-ms", FormatDouble(entry->exec_ms));
  response.Set("lower-ms", FormatDouble(entry->lower_ms));
  response.Set("vm-instructions", std::to_string(entry->vm_instructions));
  response.Set("vm-superinstructions",
               std::to_string(entry->vm_superinstructions));
  return response;
}

Message Server::HandleListModels(RequestContext& ctx) {
  Session& session = *ctx.session;
  std::lock_guard<std::mutex> session_lock(session.mu);
  std::string ids;
  for (const auto& [model_id, entry] : session.models) {
    if (!ids.empty()) ids += ' ';
    ids += std::to_string(model_id);
  }
  Message response = MakeOk();
  response.Set("models", ids);
  response.Set("count", std::to_string(session.models.size()));
  return response;
}

Message Server::HandleStats(RequestContext& /*ctx*/) {
  // Wire key → snapshot field, in wire order; `name` renders enum gauges.
  struct Field {
    const char* key;
    int64_t ServerStats::*value;
    const char* (*name)(int64_t) = nullptr;
  };
  static constexpr Field kFields[] = {
      {"requests", &ServerStats::requests}, {"ok", &ServerStats::ok},
      {"partial", &ServerStats::partial}, {"shed", &ServerStats::shed},
      {"errors", &ServerStats::errors},
      {"sessions-opened", &ServerStats::sessions_opened},
      {"sessions-closed", &ServerStats::sessions_closed},
      {"sessions-recovered", &ServerStats::sessions_recovered},
      {"sessions-rewarmed", &ServerStats::sessions_rewarmed},
      {"sessions-evicted", &ServerStats::sessions_evicted},
      {"models-registered", &ServerStats::models_registered},
      {"dedup-hits", &ServerStats::dedup_hits},
      {"disconnects", &ServerStats::disconnects},
      {"journal-writes", &ServerStats::journal_writes},
      {"durable", &ServerStats::durable},
      {"plan-hits", &ServerStats::plan_hits},
      {"plan-misses", &ServerStats::plan_misses},
      {"plan-bytes", &ServerStats::plan_bytes},
      {"inflight", &ServerStats::inflight},
      {"eval-engine", &ServerStats::eval_engine,
       [](int64_t engine) {
         return EvalEngineName(static_cast<EvalEngine>(engine));
       }},
      {"mem-tier", &ServerStats::mem_tier,
       [](int64_t tier) {
         return PressureTierName(static_cast<PressureTier>(tier));
       }},
      {"mem-shed", &ServerStats::mem_shed},
      {"tier-transitions", &ServerStats::tier_transitions},
      {"warm-evictions", &ServerStats::warm_evictions},
      {"models-compacted", &ServerStats::models_compacted},
      {"journal-compactions", &ServerStats::journal_compactions},
      {"mem-budget-bytes", &ServerStats::mem_budget_bytes},
      {"mem-used-bytes", &ServerStats::mem_used_bytes},
      {"mem-peak-bytes", &ServerStats::mem_peak_bytes},
      {"rss-bytes", &ServerStats::rss_bytes}};
  const ServerStats stats = Snapshot();
  Message response = MakeOk();
  for (const Field& field : kFields) {
    const int64_t value = stats.*field.value;
    response.Set(field.key, field.name != nullptr ? field.name(value)
                                                  : std::to_string(value));
  }
  return response;
}

Message Server::HandleShutdown(RequestContext& /*ctx*/) {
  return MakeOk();  // ConnectionLoop stops the server after responding
}

ServerStats Server::Snapshot() const {
  ServerStats stats;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats = stats_;
  }
  // Gauges are read fresh, so `stats` is accurate even between watchdog
  // ticks.
  stats.journal_writes = store_.journal_writes();
  stats.plan_hits = plan_cache_.hits();
  stats.plan_misses = plan_cache_.misses();
  stats.plan_bytes = plan_cache_.bytes();
  stats.inflight = inflight_.load(std::memory_order_acquire);
  stats.mem_tier = tier_.load(std::memory_order_relaxed);
  stats.mem_used_bytes = mem_budget_.used();
  stats.mem_peak_bytes = mem_budget_.peak();
  stats.rss_bytes = ReadRssBytes();
  stats.durable = store_.enabled() ? 1 : 0;
  stats.eval_engine = static_cast<int64_t>(options_.eval_engine);
  stats.mem_budget_bytes = options_.mem_budget_bytes;
  return stats;
}

}  // namespace folearn
