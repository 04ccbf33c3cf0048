#ifndef FOLEARN_UTIL_GOVERNOR_H_
#define FOLEARN_UTIL_GOVERNOR_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/check.h"
#include "util/mem_budget.h"

namespace folearn {

// Anytime resource governance for the library's search loops.
//
// Every algorithm in this code base has a galactic worst case by design —
// brute-force ERM scans n^ℓ parameter tuples (Proposition 11), the
// Theorem 13 learner unrolls nondeterministic guesses, the Theorem 1
// reduction drives n² oracle calls per quantifier, MSO evaluation
// enumerates 2^n subsets. A `ResourceGovernor` turns "run to completion or
// abort" into *anytime* semantics: loops cooperatively call `Checkpoint()`
// (one call per natural work unit — typically one local-type computation,
// one candidate, or one evaluated tuple) and stop early when a wall-clock
// deadline, a work budget, or an external cancellation flag trips.
// Interrupted learners return the best hypothesis found so far together
// with a `RunStatus` describing why they stopped.
//
// Formula evaluation charges one unit per tuple: each engine
// (mc/evaluator.h) calls Checkpoint() once when it starts evaluating a
// tuple (one Eval call, one sentence, one example) and `Poll()` — which
// charges nothing — at its loop back-edges, so a deadline, a cancellation
// or the memory budget still cuts a long evaluation short.
//
// Determinism: the work-unit counter is independent of timing, so equal
// inputs with an equal `max_work` budget (or an equal `FaultInjector`
// trip point) interrupt at exactly the same point and produce identical
// results — for any engine and thread count, since only Checkpoint calls
// move either. Only `deadline_ms` is timing-dependent; tests use the
// injector instead.

// Why a governed run ended.
enum class RunStatus {
  kComplete = 0,          // ran to completion; the result is exact
  kDeadlineExceeded = 1,  // wall-clock deadline hit; best-so-far result
  kBudgetExhausted = 2,   // work-unit budget hit; best-so-far result
  kCancelled = 3,         // external cancellation flag; best-so-far result
  kResourceExhausted = 4, // memory budget hit; best-so-far result
};

// Stable lower-case name ("complete", "deadline-exceeded", …) for logs and
// the CLI.
const char* RunStatusName(RunStatus status);

inline bool IsInterrupted(RunStatus status) {
  return status != RunStatus::kComplete;
}

// Sentinel for "no limit" in GovernorLimits.
inline constexpr int64_t kNoLimit = -1;

struct GovernorLimits {
  // Wall-clock budget in milliseconds; kNoLimit disables. 0 is legal and
  // trips at the first checkpoint (useful for "plan only" dry runs).
  // Other negative values CHECK-fail at governor construction.
  int64_t deadline_ms = kNoLimit;
  // Work-unit budget; kNoLimit disables. Must be positive otherwise — a
  // zero budget would make every governed call trip before doing anything,
  // which is always a caller bug.
  int64_t max_work = kNoLimit;
  // Optional memory budget (nullptr disables; must outlive the governor).
  // Probed at the clock-probe stride: when the budget (or any of its
  // ancestors) reports OverLimit(), the run is cut with
  // kResourceExhausted and returns best-so-far — the byte-dimension
  // analogue of a deadline cut. Like the deadline, the probe is
  // allocation-pattern-dependent, not deterministic; tests that need a
  // deterministic memory trip use ResourceFaults or a FaultInjector with
  // RunStatus::kResourceExhausted instead.
  const MemBudget* mem_budget = nullptr;
};

// Exit code of a process killed by crash-point injection (FaultInjector::
// CrashAt or a checkpointer's crash-after-save hook). Distinct from every
// ordinary CLI exit code so crash-loop harnesses can tell an injected
// death from a real failure.
inline constexpr int kCrashExitCode = 70;

// Immediate process death for crash-point injection: prints a one-line
// notice and _Exits with kCrashExitCode (no atexit handlers, no flushes —
// the point is to model a kill, not a clean shutdown).
[[noreturn]] void InjectedCrash(const char* where, int64_t at);

// Test-only hook: deterministically trips the governor at exactly the Nth
// checkpoint (1-based), reporting `status`. Lets tests exercise every
// interruption path without timing flakiness. `CrashAt` builds the harsher
// variant: instead of latching a status, the process dies on the spot
// (exit code kCrashExitCode), modelling an OOM kill or power loss for the
// checkpoint/resume tests.
class FaultInjector {
 public:
  explicit FaultInjector(int64_t trip_at_checkpoint,
                         RunStatus status = RunStatus::kBudgetExhausted)
      : trip_at_(trip_at_checkpoint), status_(status) {
    FOLEARN_CHECK_GE(trip_at_checkpoint, 1)
        << "fault injector must trip at a positive checkpoint";
    FOLEARN_CHECK(IsInterrupted(status))
        << "fault injector cannot inject 'complete'";
  }

  // Die (std::_Exit(kCrashExitCode)) at exactly the Nth checkpoint.
  static FaultInjector CrashAt(int64_t trip_at_checkpoint) {
    FaultInjector injector(trip_at_checkpoint);
    injector.crash_ = true;
    return injector;
  }

  int64_t trip_at() const { return trip_at_; }
  RunStatus status() const { return status_; }
  bool crash() const { return crash_; }

 private:
  int64_t trip_at_;
  RunStatus status_;
  bool crash_ = false;
};

class ResourceGovernor {
 public:
  // Unlimited: checkpoints always pass (but still count work).
  ResourceGovernor() : ResourceGovernor(GovernorLimits{}) {}

  // `cancel` and `injector`, when given, must outlive the governor.
  // Negative deadlines (other than kNoLimit) and non-positive work budgets
  // (other than kNoLimit) CHECK-fail.
  explicit ResourceGovernor(const GovernorLimits& limits,
                            const std::atomic<bool>* cancel = nullptr,
                            const FaultInjector* injector = nullptr)
      : limits_(limits),
        cancel_(cancel),
        injector_(injector),
        start_(Clock::now()) {
    FOLEARN_CHECK(limits.deadline_ms == kNoLimit || limits.deadline_ms >= 0)
        << "negative deadline: " << limits.deadline_ms << " ms";
    FOLEARN_CHECK(limits.max_work == kNoLimit || limits.max_work > 0)
        << "work budget must be positive, got " << limits.max_work;
  }

  // The cooperative check. Returns true while the run may continue; once it
  // returns false it latches and every later call returns false too, so
  // nested loops unwind quickly. `units` is the work charged for the step
  // about to run (≥ 1 per call keeps interruption prompt).
  //
  // Cost when not tripping: a few predictable branches and two counter
  // increments; the wall clock is probed only every kClockProbeStride
  // checkpoints (and at the first), keeping the hot-loop overhead
  // negligible (< 2% on the ERM core, measured by bench_erm_core).
  bool Checkpoint(int64_t units = 1) {
    if (status_ != RunStatus::kComplete) return false;
    ++checkpoints_;
    work_ += units;
    if (injector_ != nullptr && checkpoints_ >= injector_->trip_at()) {
      if (injector_->crash()) InjectedCrash("checkpoint", checkpoints_);
      status_ = injector_->status();
      return false;
    }
    if (limits_.max_work != kNoLimit && work_ > limits_.max_work) {
      status_ = RunStatus::kBudgetExhausted;
      return false;
    }
    if (!PollCancel()) return false;
    if (checkpoints_ >= next_clock_probe_) {
      next_clock_probe_ = checkpoints_ + kClockProbeStride;
      return ProbeTimedLimits();
    }
    return true;
  }

  // The in-unit poll: every kClockProbeStride calls it checks cancellation,
  // the deadline and the memory budget, latching a trip exactly like
  // Checkpoint — but it charges no work, counts no checkpoint, and never
  // advances the fault injector. In between it only reports a latched
  // trip. Evaluation engines poll at their loop back-edges, so a long unit
  // stays interruptible by the timing-dependent limits while the
  // deterministic cut points (max_work, FaultInjector) depend on
  // Checkpoint calls alone.
  bool Poll() {
    if (++polls_ < kClockProbeStride) return status_ == RunStatus::kComplete;
    polls_ = 0;
    return status_ == RunStatus::kComplete && PollCancel() &&
           ProbeTimedLimits();
  }

  // How many further unit Checkpoint() calls are guaranteed to pass
  // considering only the *deterministic* limits (work budget and fault
  // injector): kNoLimit if neither is configured, 0 if already tripped.
  // Deadline and cancellation are deliberately excluded — they are
  // timing-dependent and polled separately via PassiveLimitHit(). Parallel
  // sweeps use this to fix their evaluation range up front so an
  // interrupted run selects the same winner for any thread count.
  int64_t DeterministicAllowance() const {
    if (status_ != RunStatus::kComplete) return 0;
    int64_t allowance = kNoLimit;
    if (injector_ != nullptr) {
      int64_t left = injector_->trip_at() - 1 - checkpoints_;
      allowance = left > 0 ? left : 0;
    }
    if (limits_.max_work != kNoLimit) {
      int64_t left = limits_.max_work - work_;
      if (left < 0) left = 0;
      allowance = allowance == kNoLimit ? left : std::min(allowance, left);
    }
    return allowance;
  }

  // Equivalent of `count` sequential unit Checkpoint() calls, in O(1).
  // Returns how many of them would have returned true. If the
  // deterministic limits trip inside the batch, the failing call is
  // counted (like Checkpoint()) and the status latches exactly as the
  // sequential loop would have latched it; otherwise cancellation and the
  // wall clock are probed once at the end of the batch. Parallel sweeps
  // use this to charge the sequential-equivalent work after evaluating a
  // pre-sized range, keeping work_used() and trip points identical to the
  // single-threaded scan.
  int64_t CheckpointBatch(int64_t count) {
    if (count <= 0 || status_ != RunStatus::kComplete) return 0;
    const int64_t allowance = DeterministicAllowance();
    if (allowance != kNoLimit && count > allowance) {
      checkpoints_ += allowance + 1;
      work_ += allowance + 1;
      if (injector_ != nullptr && checkpoints_ >= injector_->trip_at()) {
        if (injector_->crash()) InjectedCrash("checkpoint", checkpoints_);
        status_ = injector_->status();
      } else {
        status_ = RunStatus::kBudgetExhausted;
      }
      return allowance;
    }
    checkpoints_ += count;
    work_ += count;
    next_clock_probe_ = checkpoints_ + kClockProbeStride;
    return PollCancel() && ProbeTimedLimits() ? count : count - 1;
  }

  // Read-only poll of the timing-dependent limits (deadline elapsed,
  // cancellation flag set, or an already-latched trip). Never mutates the
  // governor, so concurrent calls from worker threads are safe while the
  // owner is not checkpointing.
  bool PassiveLimitHit() const {
    if (status_ != RunStatus::kComplete) return true;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      return true;
    }
    if (limits_.deadline_ms != kNoLimit) {
      auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                         Clock::now() - start_)
                         .count();
      if (elapsed >= limits_.deadline_ms) return true;
    }
    if (limits_.mem_budget != nullptr && limits_.mem_budget->OverLimit()) {
      return true;
    }
    return false;
  }

  // Primes the ledger with work already accounted by an earlier process of
  // the same logical run (checkpoint/resume): restored units count against
  // max_work and the fault injector exactly as if they had been charged
  // here, so budget trips and diagnostics land at the same cut points as an
  // uninterrupted run. Must be called before the first Checkpoint()/
  // CheckpointBatch(); the wall-clock deadline is NOT restored — it
  // restarts at construction (deadlines are per-process by design).
  void RestoreLedger(int64_t work, int64_t checkpoints) {
    FOLEARN_CHECK_GE(work, 0);
    FOLEARN_CHECK_GE(checkpoints, 0);
    FOLEARN_CHECK_EQ(work_, 0)
        << "RestoreLedger after work was already charged";
    FOLEARN_CHECK_EQ(checkpoints_, 0);
    FOLEARN_CHECK(status_ == RunStatus::kComplete);
    work_ = work;
    checkpoints_ = checkpoints;
  }

  RunStatus status() const { return status_; }
  bool Interrupted() const { return IsInterrupted(status_); }
  int64_t work_used() const { return work_; }
  int64_t checkpoints_passed() const { return checkpoints_; }
  const GovernorLimits& limits() const { return limits_; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr int64_t kClockProbeStride = 256;

  // Latches kCancelled once the cancellation flag is set.
  bool PollCancel() {
    if (cancel_ == nullptr || !cancel_->load(std::memory_order_relaxed)) {
      return true;
    }
    status_ = RunStatus::kCancelled;
    return false;
  }

  // Reads the clock and the memory budget, latching kDeadlineExceeded or
  // kResourceExhausted.
  bool ProbeTimedLimits() {
    if (limits_.deadline_ms != kNoLimit &&
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              start_)
                .count() >= limits_.deadline_ms) {
      status_ = RunStatus::kDeadlineExceeded;
      return false;
    }
    if (limits_.mem_budget != nullptr && limits_.mem_budget->OverLimit()) {
      status_ = RunStatus::kResourceExhausted;
      return false;
    }
    return true;
  }

  GovernorLimits limits_;
  const std::atomic<bool>* cancel_;
  const FaultInjector* injector_;
  Clock::time_point start_;
  int64_t work_ = 0;
  int64_t checkpoints_ = 0;
  int64_t next_clock_probe_ = 0;  // probe at the very first checkpoint
  int64_t polls_ = 0;             // Poll calls since the last clock probe
  RunStatus status_ = RunStatus::kComplete;
};

// Null-tolerant helpers: library code takes an optional `ResourceGovernor*`
// (nullptr = ungoverned) and uses these instead of branching on null at
// every checkpoint site.
inline bool GovernorCheckpoint(ResourceGovernor* governor,
                               int64_t units = 1) {
  return governor == nullptr || governor->Checkpoint(units);
}

inline bool GovernorPoll(ResourceGovernor* governor) {
  return governor == nullptr || governor->Poll();
}

inline RunStatus GovernorStatus(const ResourceGovernor* governor) {
  return governor == nullptr ? RunStatus::kComplete : governor->status();
}

inline bool GovernorInterrupted(const ResourceGovernor* governor) {
  return governor != nullptr && governor->Interrupted();
}

}  // namespace folearn

#endif  // FOLEARN_UTIL_GOVERNOR_H_
