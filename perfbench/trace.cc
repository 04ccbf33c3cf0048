#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<int64_t> g_next_span{1};
std::atomic<int64_t> g_next_request{1};
thread_local bool t_muted = false;

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<std::vector<Span>>> buffers;
};

Registry& GetRegistry() {
  static Registry registry;
  return registry;
}

struct ThreadState {
  std::shared_ptr<std::vector<Span>> buffer;
  std::vector<int64_t> open;  // ids of this thread's open spans
};

ThreadState& State() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    state.buffer = std::make_shared<std::vector<Span>>();
    Registry& registry = GetRegistry();
    std::lock_guard<std::mutex> lock(registry.mu);
    registry.buffers.push_back(state.buffer);
  }
  return state;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool TracingOn() {
  return !t_muted && g_tracing.load(std::memory_order_relaxed);
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
void SetThreadMuted(bool muted) { t_muted = muted; }

int64_t NewRequestId() {
  return g_next_request.fetch_add(1, std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char* name, int64_t request) {
  if (!TracingOn()) return;
  active_ = true;
  ThreadState& state = State();
  span_.name = name;
  span_.request = request;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = state.open.empty() ? 0 : state.open.back();
  state.open.push_back(span_.id);
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  ThreadState& state = State();
  state.open.pop_back();
  state.buffer->push_back(span_);
}

std::vector<Span> CollectSpans() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<Span> all;
  for (const auto& buffer : registry.buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans) {
  // Children of one parent run on the parent's thread, one after another,
  // inside the parent's interval, so their durations simply add up.
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    const int64_t self = s.end_ns - s.start_ns - child_ns[s.id];
    self_ms[layer] += static_cast<double>(self) / 1e6;
  }
  return self_ms;
}

SpanSummary Summarize(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> us;
  for (const Span& s : spans) {
    if (name == s.name) {
      us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  SpanSummary summary;
  if (us.empty()) return summary;
  double total = 0.0;
  for (double v : us) total += v;
  summary.mean_us = total / static_cast<double>(us.size());
  std::sort(us.begin(), us.end());
  const size_t mid = us.size() / 2;
  summary.median_us =
      us.size() % 2 == 1 ? us[mid] : (us[mid - 1] + us[mid]) / 2.0;
  return summary;
}

}  // namespace perfbench
