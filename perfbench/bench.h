#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "learn/dataset.h"
#include "server/protocol.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;     // path of folearn_cli
  std::string daemon;  // path of folearnd
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one run reports: the result line's fields plus the first failure.
struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::string first_error;

  void Wrong(const std::string& why) {
    if (correct) first_error = why;
    correct = false;
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Latencies of one window of workload operations, and its set-up.
struct Window {
  // Finished operations with tracing off: start (seconds into the window)
  // and latency in ms.
  std::vector<std::pair<double, double>> ops;
  std::vector<double> traced_op_ms;  // tracing on (traced run only)
  double elapsed_s = 0.0;
  // The end-to-end metrics are medians over up to this many equal blocks
  // of the window, so a slowdown of the host during part of it moves them
  // less.
  int blocks = 1;
  std::vector<double> setup_s;       // one entry per repeated set-up
  double peak_rss_mb = 0.0;
};

// Daemon counters read through the `stats` op (or zero without a daemon).
struct ServerCounters {
  int64_t requests = 0;
  int64_t partial = 0;
  int64_t shed = 0;
  int64_t journal_writes = 0;
  int64_t plan_hits = 0;
  int64_t plan_misses = 0;
};

// The server-layer numbers a workload measured on its daemon.
struct ServerProbe {
  ServerCounters delta;  // counters over the traced window
  int64_t ops = 0;       // workload operations in that window
  double ping_rtt_us = 0.0;
};

// One workload's inputs, for the in-process per-layer probes.
struct ProbeInput {
  uint64_t seed = 1;
  std::string graph_path;  // text graph file
  const folearn::Graph* graph = nullptr;
  folearn::TrainingSet learn_data;
  int rank = 1;
  int radius = 1;
  int ell = 0;
  std::string model_text;  // the model the workload serves or checks
  folearn::TrainingSet eval_examples;
  std::vector<folearn::Message> messages;  // the workload's own requests
  ServerProbe server;
};

// Runs the workload named in options; fills the outcome's metrics with
// the end-to-end metrics (tracing off) or the per-layer metrics (traced).
// False on an infrastructure failure (no result is printed then).
bool RunWorkload(const Options& options, Outcome* outcome, std::string* error);

// Runs every in-process layer probe on `input` and appends the per-layer
// metrics, including per-layer self time over all spans recorded so far
// and the tracing overhead measured by `window`.
void ProbeLayers(const ProbeInput& input, const Window& window,
                 Outcome* outcome);

// Helpers shared by the workloads and the probes.
uint64_t Mix(uint64_t seed, uint64_t salt);
// `count` distinct vertices of [0, n) drawn uniformly, labelled v % 7 < 3.
folearn::TrainingSet SampleExamples(int n, int count, uint64_t seed);
// Same generator and colouring as `folearn_cli generate --family tree`.
folearn::Graph MakeColouredTree(int n, uint64_t seed);
double Percentile(std::vector<double> values, double q);
// The file's contents, or "" when it cannot be read.
std::string ReadText(const std::string& path);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
