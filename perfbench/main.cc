// perfbench_driver: runs one benchmark workload against the folearn
// binaries and prints the result as one JSON line on standard output.
//
//   perfbench_driver --workload serve-eval --seed 3 --seconds 15 --trace 0
//                    --cli <folearn_cli> --daemon <folearnd> --workdir <dir>
//
// perfbench/run.py builds the binaries and calls this; see README.md.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

int Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --cli PATH --daemon PATH --workdir DIR\n",
               why.c_str());
  return 2;
}

void PrintResult(const Outcome& outcome) {
  std::string line = "{\"correct\": ";
  line += outcome.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Usage;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage("expected --flag, got " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage("flags come in --key value pairs");
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "cli", "daemon", "workdir"}) {
    if (flags.count(required) == 0) {
      return Usage(std::string("missing --") + required);
    }
  }
  perfbench::Options options;
  options.workload = flags["workload"];
  options.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  options.seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  options.trace = flags["trace"] == "1";
  options.cli = flags["cli"];
  options.daemon = flags["daemon"];
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");
  const std::string workdir = flags["workdir"];
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  if (::chdir(workdir.c_str()) != 0) return Usage("cannot enter " + workdir);

  perfbench::Outcome outcome;
  std::string error;
  if (!perfbench::RunWorkload(options, &outcome, &error)) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.c_str());
    return 1;
  }
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench_driver: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  if (!outcome.correct) {
    std::fprintf(stderr, "perfbench_driver: wrong output: %s\n",
                 outcome.first_error.c_str());
  }
  perfbench::PrintResult(outcome);
  return 0;
}
