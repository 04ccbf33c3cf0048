#ifndef FOLEARN_SERVER_SERVER_H_
#define FOLEARN_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mc/plan_cache.h"
#include "server/protocol.h"
#include "server/session_store.h"
#include "util/governor.h"
#include "util/mem_budget.h"
#include "util/status.h"

namespace folearn {

// folearnd: a long-lived learn/evaluate/query server.
//
// The batch CLI pays the full setup cost — graph parsing, type-registry
// population, ball materialisation, formula compilation — on every
// invocation. The server loads a graph once per *session* and keeps the
// derived state warm across requests:
//
//   * the session's TypeRegistry (canonical TypeIds across learns),
//   * a byte-budgeted BallCache bound to the session graph,
//   * per-session warm bytecode VMs (per-graph memo tables), which serve
//     governed and ungoverned requests alike — a request's governor is
//     attached per call,
//   * a process-wide PlanCache of compiled plans and their lowered
//     bytecode (shared across sessions — both are graph-independent), and
//   * registered *model handles*: every learn registers its hypothesis
//     under a session-scoped model-id, so evaluate/query can reference
//     the already-parsed model instead of shipping its text every time.
//
// Durability: with ServerOptions::state_dir set, every acknowledged
// session mutation (creation, learned model registration, close) is
// journaled through the checkpoint envelope *before* the response frame
// is written (src/server/session_store.h). A restarted daemon pointed at
// the same state dir recovers every journaled session and model handle;
// graphs are re-parsed lazily on first use, so restart is instant and an
// idle-evicted session re-warms transparently. Learn requests may carry a
// client-supplied "request-id": the acknowledged response is recorded in
// a bounded per-session dedup window (journaled with the session), so a
// client that retries a dropped learn — including across a daemon
// restart — gets the byte-identical original response instead of a
// duplicate side effect.
//
// Concurrency model: one thread per connection; requests on one
// connection are sequential (frame in → frame out), requests on
// different connections run in parallel. Requests touching the same
// session serialise on the session mutex; cross-session requests share
// nothing mutable but the plan cache (internally locked). A client that
// disconnects mid-request (or sends a torn frame) costs exactly its
// connection: the session, its admission slot, and the daemon survive
// (writes use MSG_NOSIGNAL, so a dead peer yields EPIPE, never SIGPIPE).
//
// Admission control and overload behaviour: at most
// ServerOptions::max_inflight substantive requests (learn / evaluate /
// query / load-graph) execute at once. Excess requests are *shed* — they
// receive an immediate status=shed response on a healthy connection
// instead of queueing without bound or having the connection dropped.
// Per-request deadline-ms / max-work fields become a ResourceGovernor
// (clamped by the server-wide caps), so an admitted request that runs
// too long degrades to status=partial with best-so-far payload — the
// same anytime semantics as the CLI, exit-code analogue 3.
//
// Protocol operations (see protocol.h for framing and retry semantics).
// Server::kOps in server.cc is the single list of ops: each entry names
// the op, whether it is substantive (admission), whether it takes a
// session (resolved by Dispatch before the handler runs) and its
// handler. Session ids are strict decimal on every op.
//
//   ping           echoes "payload"; with session=<id>, also refreshes
//                  that session's idle clock (heartbeat) and reports
//                  session-known=0|1
//   load-graph     graph=<graph text> → session=<id>
//   close-session  session=<id> (also removes the session's journal)
//   learn          session, data=<training set text>, rank, radius, ell,
//                  threads, deadline-ms, max-work, [request-id] →
//                  model=<hypothesis text>, model-id, training-error,
//                  work-used; a repeated request-id replays the original
//                  response with deduped=1
//   evaluate       session, model=<hypothesis text> | model-id=<id>,
//                  data=<training set text> → error=<fraction>
//   query          session, sentence=<FO sentence> → result=true|false
//                  (partial → result=indeterminate); or model-id=<id>,
//                  tuple=<v1 v2 …> → result=true|false (the model's
//                  classification of the tuple)
//   get-model      session, model-id → model=<hypothesis text>
//   list-models    session → models=<space-separated ids>
//   stats          → request/session/cache/journal counters
//   shutdown       stops the serve loop after responding
struct ServerOptions {
  std::string socket_path;
  // Durable session journal directory; empty = sessions are memory-only.
  std::string state_dir;
  // Concurrent substantive requests admitted before shedding; must be >= 1.
  int max_inflight = 8;
  // Server-wide caps on per-request governor limits (kNoLimit = uncapped).
  // A request asking for more than the cap is clamped to the cap; with a
  // cap set, requests that ask for nothing still run under it.
  int64_t max_deadline_ms = kNoLimit;
  int64_t max_work = kNoLimit;
  // Idle-session TTL (kNoLimit = never evict). A session untouched for
  // this long is evicted from memory: journaled sessions demote to cold
  // entries that lazily re-warm on next use, memory-only sessions close.
  int64_t session_ttl_ms = kNoLimit;
  // Byte budget of each session's BallCache (BallCache::kNoBudget = off).
  int64_t ball_cache_bytes = 32 << 20;
  // Byte budget of the shared compiled-plan cache.
  int64_t plan_cache_bytes = 8 << 20;
  // Bound of the per-session learn dedup window (journaled with it).
  int dedup_window = 64;
  // listen(2) backlog.
  int backlog = 64;
  // Test hook (chaos harness): die with kCrashExitCode right after the
  // Nth completed journal write; < 0 disables.
  int64_t crash_at_journal_write = -1;

  // ---- Memory governance (tentpole: pressure-aware degradation). ----
  //
  // Process-wide byte budget. kNoLimit = ungoverned: the watchdog still
  // publishes RSS/accounted gauges but the tier stays green. With a
  // budget, the watchdog classifies max(RSS, accounted bytes) against it
  // every mem_watchdog_ms and the server *degrades* instead of dying:
  //   yellow  caches flip to read-through; non-mmap load-graph is shed
  //   red     + idle warm state evicted LRU-first, plan cache trimmed to
  //             a floor
  //   black   every substantive request is shed (code 75, retry-safe);
  //             heartbeats, stats, close-session and shutdown still work
  // The daemon never aborts on memory pressure.
  int64_t mem_budget_bytes = kNoLimit;
  // Per-session byte cap (child account of the process budget; kNoLimit =
  // only the process budget governs). A session whose registry + caches +
  // journal footprint exceed it has its learns cut with
  // status=partial run-status=resource-exhausted at the next governor
  // checkpoint — best-so-far results, never an abort.
  int64_t session_mem_bytes = kNoLimit;
  // Watchdog poll cadence.
  int64_t mem_watchdog_ms = 200;
  // Tier thresholds as fractions of mem_budget_bytes.
  PressureThresholds pressure;
  // Test hook: pin the pressure tier (0=green 1=yellow 2=red 3=black)
  // regardless of measured memory; < 0 disables. The pinned tier drives
  // the same degradation paths as a measured one.
  int force_tier = -1;
  // Journal compaction: a session whose journaled record would exceed
  // either cap drops its oldest model handles (never the one being
  // registered) before the atomic rewrite. kNoLimit = unbounded.
  int64_t max_session_models = kNoLimit;
  int64_t journal_compact_bytes = kNoLimit;
};

// Monotonic counters, snapshot under the stats lock.
struct ServerStats {
  int64_t requests = 0;         // frames dispatched (all ops)
  int64_t ok = 0;
  int64_t partial = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t sessions_opened = 0;
  int64_t sessions_closed = 0;
  int64_t sessions_recovered = 0;  // journal entries indexed at Start()
  int64_t sessions_rewarmed = 0;   // lazy journal loads on first use
  int64_t sessions_evicted = 0;    // idle-TTL evictions (either kind)
  int64_t models_registered = 0;
  int64_t dedup_hits = 0;          // learn request-id replays
  int64_t disconnects = 0;         // connections dropped mid-request
  int64_t journal_writes = 0;      // SessionStore counter at snapshot time
  int64_t plan_hits = 0;           // PlanCache hits/misses at snapshot time
  int64_t plan_misses = 0;
  int64_t inflight = 0;            // gauge: substantive requests in flight
  // Memory governance.
  int64_t mem_shed = 0;            // requests shed for memory pressure
  int64_t tier_transitions = 0;    // watchdog tier changes
  int64_t warm_evictions = 0;      // red-tier warm-state demotions
  int64_t models_compacted = 0;    // model handles dropped by compaction
  int64_t journal_compactions = 0; // journal rewrites that dropped handles
  int64_t mem_tier = 0;            // gauge: current pressure tier
  int64_t rss_bytes = 0;           // gauge: RSS at snapshot time
  int64_t mem_used_bytes = 0;      // gauge: accounted bytes at snapshot
  int64_t mem_peak_bytes = 0;      // gauge: accounted high-water mark
  int64_t plan_bytes = 0;          // gauge: PlanCache bytes at snapshot
  // Configuration echoed by the stats op.
  int64_t durable = 0;             // 1 when sessions are journaled
  // EvalEngine of evaluate/query: always the bytecode VM.
  int64_t eval_engine = static_cast<int64_t>(EvalEngine::kVm);
  int64_t mem_budget_bytes = 0;    // ServerOptions::mem_budget_bytes
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Initialises the session journal (creating state_dir if needed),
  // indexes every journaled session for lazy re-warm, then binds and
  // listens on options.socket_path (removing a stale socket file first).
  // kUnavailable on any socket-layer failure; kInvalidArgument on an
  // over-long socket path; journal corruption of the meta file is
  // kDataLoss.
  Status Start();

  // Accepts and serves connections until Shutdown() (or a "shutdown"
  // request) is observed, then drains: stops accepting, waits for every
  // connection thread, removes the socket file. Call Start() first.
  // With session_ttl_ms set, also sweeps idle sessions.
  void Serve();

  // Requests a graceful stop of Serve(). Safe from any thread and from
  // signal handlers (one write(2) on a pre-opened pipe).
  void Shutdown();

  const std::string& socket_path() const { return options_.socket_path; }

  ServerStats Snapshot() const;

 private:
  struct Session;

  // One entry in the session table. `live` is the warm in-memory state;
  // a journaled slot with live == nullptr is *cold* and re-warms from the
  // store on first use. `mu` guards `live`; the idle clock is atomic so
  // heartbeats never take the slot lock.
  struct SessionSlot {
    std::mutex mu;
    std::shared_ptr<Session> live;
    bool journaled = false;
    std::atomic<int64_t> last_used_ms{0};
  };

  // Everything a handler needs about its request; see server.cc.
  struct RequestContext;

  // How an op uses the request's "session" field. Dispatch resolves it
  // before the handler runs; a missing or malformed id fails the request
  // (code 64) for every op but kNone.
  enum class SessionUse {
    kNone,  // no session (ping reads the parsed id as a heartbeat)
    kId,    // the strictly parsed id only (close-session never re-warms)
    kLive,  // the warm session, re-warmed from the journal if cold
  };

  // One protocol operation. kOps (server.cc) is the single list of ops.
  struct Op {
    const char* name;
    // Substantive ops count against max_inflight and are shed at the
    // black tier; control-plane ops are always admitted so a loaded
    // server stays observable and stoppable.
    bool substantive;
    SessionUse session;
    Message (Server::*handler)(RequestContext& ctx);
  };
  static const Op kOps[];

  // The request pipeline: black-tier shed → max-inflight admission → op
  // lookup → session resolve → handler → RecordOutcome. Never throws,
  // always returns a response message.
  Message Dispatch(const Message& request);

  Message HandlePing(RequestContext& ctx);
  Message HandleLoadGraph(RequestContext& ctx);
  Message HandleCloseSession(RequestContext& ctx);
  Message HandleLearn(RequestContext& ctx);
  Message HandleEvaluate(RequestContext& ctx);
  Message HandleQuery(RequestContext& ctx);
  Message HandleGetModel(RequestContext& ctx);
  Message HandleListModels(RequestContext& ctx);
  Message HandleStats(RequestContext& ctx);
  Message HandleShutdown(RequestContext& ctx);

  // A retry-safe refusal to start the work (status=shed). Memory-pressure
  // sheds name their tier, carry the temp-fail code and count as mem_shed;
  // admission sheds (no tier) carry code 3.
  Message MakeShed(std::string_view error,
                   std::optional<PressureTier> tier = std::nullopt);

  // Resolves a session id to its warm state, lazily re-warming a cold
  // journaled slot (parse graph, reinstall models and dedup window).
  // NotFound for an id that is neither live nor journaled; kDataLoss for
  // a corrupt journal file.
  StatusOr<std::shared_ptr<Session>> AcquireSession(uint64_t id);

  std::shared_ptr<SessionSlot> FindSlot(uint64_t id);

  // Demotes (journaled) or closes (memory-only) sessions idle longer
  // than session_ttl_ms. Called from the accept loop's poll cadence.
  void EvictIdleSessions();

  // Demotes one slot whose idle clock is older than `idle_before`, unless
  // it is busy, already cold, or held by a request: a journaled session
  // goes cold (it re-warms lazily from the journal); a memory-only one is
  // dropped when `drop_memory_only`, and otherwise only sheds its
  // rebuildable warm state. Returns whether the slot was demoted.
  bool DemoteSlot(SessionSlot& slot, int64_t idle_before,
                  bool drop_memory_only);

  // Red-tier back-pressure: demotes idle journaled sessions (LRU-first)
  // and drops memory-only sessions' warm evaluators/ball entries until
  // accounted bytes fall back under the red threshold. Never touches a
  // session a request currently holds. Data is never lost — journaled
  // sessions re-warm lazily, memory-only sessions keep graph and models.
  void EvictWarmStateUnderPressure();

  // Watchdog body: classifies pressure every mem_watchdog_ms until
  // Shutdown(). Runs for the lifetime of Serve().
  void WatchdogLoop();

  // One watchdog tick: measure, classify (or honour force_tier), publish
  // the tier, flip caches to read-through at >= yellow, run red-tier
  // reclamation.
  void UpdatePressure();

  PressureTier CurrentTier() const {
    return static_cast<PressureTier>(
        tier_.load(std::memory_order_relaxed));
  }

  // Builds a session attached to the memory-governance tree (child
  // budget, registry/ball-cache accounts, read-through flag).
  std::shared_ptr<Session> NewSession(uint64_t id, Graph graph,
                                      std::string graph_text,
                                      std::string graph_file,
                                      uint64_t fingerprint);

  void ConnectionLoop(int fd);
  void RecordOutcome(const Message& response);
  void BumpStat(int64_t ServerStats::*counter, int64_t delta = 1);

  ServerOptions options_;
  // Root of the memory-governance tree; session budgets are children.
  // Declared before plan_cache_ and the session table so every account
  // that charges it is destroyed first.
  MemBudget mem_budget_;
  PlanCache plan_cache_;
  SessionStore store_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Shutdown() → poll wakeup
  std::atomic<bool> stopping_{false};
  std::atomic<int> inflight_{0};

  // Published by the watchdog, read lock-free on every dispatch.
  std::atomic<int> tier_{0};
  std::atomic<bool> cache_read_through_{false};
  std::thread watchdog_;

  // Lock order: mu_ (session table) → SessionSlot::mu → Session::mu →
  // stats_mu_ / the store's internal mutex. Never the reverse.
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<SessionSlot>> sessions_;
  uint64_t next_session_id_ = 1;
  mutable std::mutex stats_mu_;
  ServerStats stats_;
  // One thread per accepted connection, touched only by the Serve()
  // thread. `done` is set as a connection thread exits, so the accept
  // loop joins finished threads as it goes instead of at shutdown.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections_;
};

}  // namespace folearn

#endif  // FOLEARN_SERVER_SERVER_H_
