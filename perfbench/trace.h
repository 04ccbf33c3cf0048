#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// In-memory span recorder for the traced run. Spans are recorded only
// around the benchmark's own calls into folearn's public functions (never
// inside the program), kept in per-thread buffers and written out once,
// when the run ends. With tracing off a ScopedSpan costs one relaxed load.
struct Span {
  const char* name = "";  // "<layer>.<call>", a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = root
  int64_t request = 0;  // shared by every span of one workload operation
};

// Tracing is on for a thread when it is on globally and not muted on that
// thread (the traced run mutes alternate blocks of operations to measure
// the tracing overhead against itself).
void SetTracing(bool on);
void SetThreadMuted(bool muted);

// Allocates a request id for one workload operation.
int64_t NewRequestId();

class ScopedSpan {
 public:
  ScopedSpan(const char* name, int64_t request);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  bool active_ = false;
};

// Every span recorded so far, from every thread. Call after the recording
// threads have been joined.
std::vector<Span> CollectSpans();

// Writes one JSON object per span to `path`.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

// Per-layer self time in ms: each span's duration minus its children's,
// summed by layer (the span name up to the first '.').
std::map<std::string, double> SelfTimeByLayer(const std::vector<Span>& spans);

// Mean and median duration in µs of the spans called `name`.
struct SpanSummary {
  double mean_us = 0.0;
  double median_us = 0.0;
};
SpanSummary Summarize(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
