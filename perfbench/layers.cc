// Per-layer probes of the traced run. Each probe calls one layer's public
// functions on the workload's own inputs, inside spans recorded by the
// benchmark, and reads the counters the layer already exposes. Nothing
// here reaches inside the program.

#include <algorithm>
#include <filesystem>

#include "bench.h"
#include "graph/fog.h"
#include "learn/erm.h"
#include "learn/model_io.h"
#include "learn/nd_learner.h"
#include "mc/bytecode.h"
#include "mc/compiler.h"
#include "mc/vm.h"
#include "server/session_store.h"
#include "trace.h"
#include "types/type.h"

namespace perfbench {

using folearn::Graph;
using folearn::Vertex;

namespace {

// Candidate parameter vertices the ball and type probes pair with each
// example, as the ℓ = 1 learners do for every vertex.
constexpr int kCandidates = 16;
// Examples the VM probes evaluate.
constexpr int kVmExamples = 16;
// Requests of this many examples share one governed evaluator.
constexpr int kPerRequest = 4;

double Share(int64_t part, int64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

double SpanMs(const char* name, const std::vector<Span>& spans) {
  return Summarize(spans, name).median_us / 1e3;
}

// The (example, candidate) tuples a learner with `ell` parameters types:
// candidates outermost, as BruteForceErm scans them.
std::vector<std::vector<Vertex>> LearnerTuples(const ProbeInput& in) {
  std::vector<std::vector<Vertex>> tuples;
  if (in.ell == 0) {
    for (const auto& ex : in.learn_data) tuples.push_back(ex.tuple);
    return tuples;
  }
  const folearn::TrainingSet candidates = SampleExamples(
      in.graph->order(), kCandidates, Mix(in.seed, 40));
  for (const auto& candidate : candidates) {
    for (const auto& ex : in.learn_data) {
      std::vector<Vertex> tuple = ex.tuple;
      tuple.push_back(candidate.tuple[0]);
      tuples.push_back(std::move(tuple));
    }
  }
  return tuples;
}

void ProbeGraph(const ProbeInput& in, Outcome* out) {
  for (int i = 0; i < 3; ++i) {
    ScopedSpan s("graph.LoadGraphAuto-text", NewRequestId());
    folearn::StatusOr<Graph> g = folearn::LoadGraphAuto(in.graph_path);
    if (!g.ok()) out->Wrong("cannot load " + in.graph_path);
  }
  Graph copy = *in.graph;
  copy.Finalize();
  if (!folearn::WriteFogFile("probe.fog", copy).ok()) {
    out->Wrong("cannot pack probe.fog");
  }
  for (int i = 0; i < 3; ++i) {
    // Each load drops the previous mapping, so every load maps afresh.
    ScopedSpan s("graph.LoadGraphAuto-fog", NewRequestId());
    folearn::StatusOr<Graph> g = folearn::LoadGraphAuto("probe.fog");
    if (!g.ok()) out->Wrong("cannot load probe.fog");
  }
  std::filesystem::remove("probe.fog");

  folearn::BallCache cache(*in.graph);
  int64_t vertices = 0;
  const auto tuples = LearnerTuples(in);
  for (const auto& tuple : tuples) {
    ScopedSpan s("graph.BallCache::TupleBall", NewRequestId());
    vertices += static_cast<int64_t>(cache.TupleBall(tuple, in.radius).size());
  }
  const std::vector<Span> spans = CollectSpans();
  out->Add("graph.load_text_ms", SpanMs("graph.LoadGraphAuto-text", spans),
           "ms");
  out->Add("graph.load_fog_ms", SpanMs("graph.LoadGraphAuto-fog", spans),
           "ms");
  out->Add("graph.ball_us",
           Summarize(spans, "graph.BallCache::TupleBall").mean_us, "us");
  out->Add("graph.ball_vertices",
           Share(vertices, static_cast<int64_t>(tuples.size())), "count");
  out->Add("graph.ball_cache_hit_share",
           Share(cache.hits(), cache.hits() + cache.misses()), "share");
}

void ProbeTypes(const ProbeInput& in, Outcome* out) {
  folearn::TypeRegistry registry(in.graph->vocabulary());
  folearn::BallCache cache(*in.graph);
  const auto tuples = LearnerTuples(in);
  for (const auto& tuple : tuples) {
    ScopedSpan s("types.ComputeLocalType", NewRequestId());
    folearn::ComputeLocalType(*in.graph, tuple, in.rank, in.radius, &registry,
                              &cache);
  }
  const int64_t calls = static_cast<int64_t>(tuples.size());
  out->Add("types.local_type_us",
           Summarize(CollectSpans(), "types.ComputeLocalType").mean_us, "us");
  out->Add("types.local_type_calls", static_cast<double>(calls), "count");
  out->Add("types.distinct_share", Share(registry.size(), calls), "share");
}

// Learns the workload's problem in-process; returns the model text.
std::string ProbeLearn(const ProbeInput& in, Outcome* out) {
  folearn::ErmOptions erm;
  erm.rank = in.rank;
  erm.radius = in.radius;
  erm.threads = 1;
  folearn::ErmResult brute;
  {
    ScopedSpan s("learn.BruteForceErm", NewRequestId());
    brute = folearn::BruteForceErm(*in.graph, in.learn_data, in.ell, erm);
  }
  const std::string model =
      folearn::HypothesisToText(brute.hypothesis.ToExplicit());
  {
    ScopedSpan s("learn.ParseHypothesis", NewRequestId());
    if (!folearn::ParseHypothesis(model).ok()) {
      out->Wrong("learned model does not parse");
    }
  }
  folearn::NdLearnerOptions nd;
  nd.rank = in.rank;
  nd.radius = in.radius;
  nd.ell_star = std::max(in.ell, 1);
  nd.epsilon = 0.2;  // folearn_cli's default
  nd.threads = 1;
  folearn::NdLearnerResult nd_result;
  {
    ScopedSpan s("nd.LearnNowhereDense", NewRequestId());
    nd_result = folearn::LearnNowhereDense(*in.graph, in.learn_data, nd);
  }
  int64_t conflicts = 0;
  for (const folearn::NdStepStats& step : nd_result.steps) {
    conflicts += step.conflicts;
  }
  const std::vector<Span> spans = CollectSpans();
  out->Add("learn.brute_ms", SpanMs("learn.BruteForceErm", spans), "ms");
  out->Add("learn.brute_candidates",
           static_cast<double>(brute.parameter_tuples_tried), "count");
  out->Add("learn.model_bytes", static_cast<double>(model.size()), "bytes");
  out->Add("learn.model_parse_ms", SpanMs("learn.ParseHypothesis", spans),
           "ms");
  out->Add("learn.nd_ms", SpanMs("nd.LearnNowhereDense", spans), "ms");
  out->Add("learn.nd_candidates",
           static_cast<double>(nd_result.candidates_evaluated), "count");
  out->Add("nd.steps", static_cast<double>(nd_result.steps.size()), "count");
  out->Add("nd.conflicts", static_cast<double>(conflicts), "count");
  return model;
}

// Times one ungoverned VM evaluation per example on `graph` in spans
// called `span`, with the model's parameters folded into the graph's
// vertex range; returns the mean in µs.
double VmExampleUs(const folearn::CompiledFormula& plan,
                   const folearn::LoweredPlan& lowered,
                   const folearn::Hypothesis& h, const Graph& graph,
                   const folearn::TrainingSet& examples, const char* span) {
  folearn::EvalOptions options;
  options.missing_color_is_false = true;
  folearn::VmEvaluator vm(plan, lowered, graph, options);
  std::vector<Vertex> env;
  const auto fill = [&](const folearn::LabeledExample& ex) {
    env = ex.tuple;
    for (Vertex w : h.parameters) env.push_back(w % graph.order());
  };
  fill(examples.front());
  vm.Eval(env);  // warm-up: the daemon's evaluator is long-lived
  for (const auto& ex : examples) {
    fill(ex);
    ScopedSpan s(span, NewRequestId());
    vm.Eval(env);
  }
  return Summarize(CollectSpans(), span).mean_us;
}

void ProbeMc(const ProbeInput& in, const std::string& model, Outcome* out) {
  folearn::StatusOr<folearn::Hypothesis> h = folearn::ParseHypothesis(model);
  if (!h.ok()) {
    out->Wrong("learned model does not parse");
    return;
  }
  const std::vector<std::string> frame = h->AllVars();
  std::optional<folearn::CompiledFormula> plan;
  {
    ScopedSpan s("mc.CompileFormula", NewRequestId());
    plan.emplace(folearn::CompileFormula(h->formula, frame));
  }
  std::optional<folearn::LoweredPlan> lowered;
  {
    ScopedSpan s("mc.LowerPlan", NewRequestId());
    lowered.emplace(folearn::LowerPlan(*plan));
  }
  folearn::TrainingSet examples(
      in.eval_examples.begin(),
      in.eval_examples.begin() +
          std::min<size_t>(kVmExamples, in.eval_examples.size()));

  // Fast lane: no stats sink, no governor.
  const double big_us = VmExampleUs(*plan, *lowered, *h, *in.graph, examples,
                                    "mc.VmEvaluator::Eval");

  // Governed lane: a fresh evaluator per request with the request's
  // deadline, as folearnd runs a request that carries deadline-ms.
  folearn::EvalOptions options;
  options.missing_color_is_false = true;
  std::vector<Vertex> env;
  for (size_t first = 0; first < examples.size(); first += kPerRequest) {
    folearn::GovernorLimits limits;
    limits.deadline_ms = 60000;
    folearn::ResourceGovernor governor(limits);
    folearn::EvalOptions governed = options;
    governed.governor = &governor;
    folearn::VmEvaluator vm(*plan, *lowered, *in.graph, governed);
    for (size_t i = first; i < std::min(first + kPerRequest, examples.size());
         ++i) {
      env = examples[i].tuple;
      env.insert(env.end(), h->parameters.begin(), h->parameters.end());
      ScopedSpan s("mc.VmEvaluator::Eval-governed", NewRequestId());
      vm.Eval(env);
    }
  }

  // Counts from a separate pass: a stats sink switches the VM to its
  // counting lane, so it must not share the timed passes.
  folearn::EvalStats stats;
  {
    folearn::VmEvaluator vm(*plan, *lowered, *in.graph, options);
    for (const auto& ex : examples) {
      env = ex.tuple;
      env.insert(env.end(), h->parameters.begin(), h->parameters.end());
      vm.Eval(env, &stats);
    }
  }
  int64_t dispatches = 0;
  for (int64_t d : stats.vm_op_dispatches) dispatches += d;

  // Locality shape: the same model on a same-family graph of n/4.
  const int small_n = std::max(8, in.graph->order() / 4);
  Graph small = MakeColouredTree(small_n, Mix(in.seed, 77));
  small.Finalize();
  const double small_us =
      VmExampleUs(*plan, *lowered, *h, small,
                  SampleExamples(small_n, static_cast<int>(examples.size()),
                                 Mix(in.seed, 78)),
                  "mc.VmEvaluator::Eval-small");

  const std::vector<Span> spans = CollectSpans();
  const auto n = static_cast<int64_t>(examples.size());
  const ServerCounters& d = in.server.delta;
  out->Add("mc.compile_ms", SpanMs("mc.CompileFormula", spans), "ms");
  out->Add("mc.lower_ms", SpanMs("mc.LowerPlan", spans), "ms");
  out->Add("mc.bytecode_bytes", static_cast<double>(lowered->bytes()),
           "bytes");
  out->Add("mc.plan_cache_hit_share",
           Share(d.plan_hits, d.plan_hits + d.plan_misses), "share");
  out->Add("mc.vm_exec_us", big_us, "us");
  out->Add("mc.vm_exec_governed_us",
           Summarize(spans, "mc.VmEvaluator::Eval-governed").mean_us, "us");
  out->Add("mc.vm_dispatches", Share(dispatches, n), "count");
  out->Add("mc.atom_evaluations", Share(stats.atom_evaluations, n), "count");
  out->Add("mc.exec_n_ratio", big_us / std::max(small_us, 1e-3), "ratio");
}

void ProbeServer(const ProbeInput& in, const std::string& model,
                 Outcome* out) {
  constexpr int kRepeats = 20;
  for (const folearn::Message& message : in.messages) {
    std::string payload;
    for (int i = 0; i < kRepeats; ++i) {
      ScopedSpan s("server.EncodeMessage", NewRequestId());
      payload = folearn::EncodeMessage(message);
    }
    for (int i = 0; i < kRepeats; ++i) {
      ScopedSpan s("server.DecodeMessage", NewRequestId());
      if (!folearn::DecodeMessage(payload).ok()) {
        out->Wrong("a request does not decode");
      }
    }
  }

  // One journal write of this workload's session: its graph and model.
  std::filesystem::remove_all("journal_probe");
  folearn::SessionStore store("journal_probe");
  folearn::SessionRecord record;
  record.id = 1;
  record.graph_text = ReadText(in.graph_path);
  record.models.emplace_back(1, model);
  if (!store.Init().ok()) out->Wrong("cannot initialise the journal probe");
  for (int i = 0; i < 5; ++i) {
    ScopedSpan s("server.SessionStore::Save", NewRequestId());
    if (!store.Save(record).ok()) out->Wrong("journal probe write failed");
  }
  std::filesystem::remove_all("journal_probe");

  const std::vector<Span> spans = CollectSpans();
  const ServerCounters& d = in.server.delta;
  out->Add("server.encode_us", Summarize(spans, "server.EncodeMessage").mean_us,
           "us");
  out->Add("server.decode_us", Summarize(spans, "server.DecodeMessage").mean_us,
           "us");
  out->Add("server.ping_rtt_us", in.server.ping_rtt_us, "us");
  out->Add("server.journal_save_ms", SpanMs("server.SessionStore::Save", spans),
           "ms");
  out->Add("server.journal_writes_per_cycle",
           Share(d.journal_writes, in.server.ops), "count");
  out->Add("server.shed_share", Share(d.shed, d.requests), "share");
  out->Add("server.partial_share", Share(d.partial, d.requests), "share");
}

}  // namespace

void ProbeLayers(const ProbeInput& in, const Window& window, Outcome* out) {
  ProbeGraph(in, out);
  ProbeTypes(in, out);
  const std::string model = ProbeLearn(in, out);
  ProbeMc(in, model, out);
  ProbeServer(in, model, out);

  std::vector<double> untraced_ms;
  for (const auto& op : window.ops) untraced_ms.push_back(op.second);
  const double untraced = Median(untraced_ms);
  const double traced = Median(window.traced_op_ms);
  out->Add("trace.overhead_share",
           untraced > 0.0 && traced > 0.0 ? traced / untraced - 1.0 : 0.0,
           "share");
  const std::vector<Span> spans = CollectSpans();
  const std::map<std::string, double> self = SelfTimeByLayer(spans);
  for (const char* layer :
       {"graph", "types", "learn", "nd", "mc", "server", "call", "op"}) {
    const auto it = self.find(layer);
    out->Add(std::string("self.") + layer + "_ms",
             it == self.end() ? 0.0 : it->second, "ms");
  }
  if (!WriteSpans("trace.jsonl", spans)) out->Wrong("cannot write trace.jsonl");
}

}  // namespace perfbench
