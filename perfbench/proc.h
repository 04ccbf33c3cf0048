#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// One finished child process.
struct ChildResult {
  int exit_code = -1;      // -1 when killed by a signal
  double wall_s = 0.0;
  int64_t max_rss_kb = 0;  // the child's peak RSS (VmHWM)
  std::string out;         // captured standard output
  std::string err;         // captured standard error
};

// Runs argv[0] (a path) with the given arguments, waits for it and
// returns its exit code, wall time and captured output. With sample_rss
// the child's peak RSS is sampled every 2 ms while it runs (so its exit is
// seen up to 2 ms late); otherwise max_rss_kb stays 0. Safe to call from
// several threads at once.
ChildResult RunChild(const std::vector<std::string>& argv,
                     bool sample_rss = false);

// A folearnd child process. The daemon receives SIGKILL if this process
// dies first, and the destructor kills and reaps a daemon that was not
// shut down, so no daemon outlives the benchmark.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon();

  // Starts `binary` listening on `socket` (relative to the working
  // directory) with `extra` flags, and waits until a ping succeeds.
  bool Start(const std::string& binary, const std::string& socket,
             const std::vector<std::string>& extra, std::string* error);

  // Peak resident set size (VmHWM) of the running daemon, in kB.
  int64_t PeakRssKb() const;

  // Sends a shutdown request and checks the exit: code 0 within the
  // timeout and the socket file removed.
  bool Shutdown(std::string* error);

  const std::string& socket() const { return socket_; }

 private:
  void Kill();

  pid_t pid_ = -1;
  std::string socket_;
};

// Seconds since an arbitrary fixed point (steady clock).
double NowSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
