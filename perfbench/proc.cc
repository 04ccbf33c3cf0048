#include "proc.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include "bench.h"
#include "server/client.h"

namespace perfbench {
namespace {

// fork + exec with stdout → `out_path` and stderr → `err_path`. In the
// child, a parent death delivers SIGKILL so nothing outlives the driver.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& out_path,
            const std::string& err_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;  // parent (or -1)
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(127);
  const int null_fd = ::open("/dev/null", O_RDWR);
  const int out_fd =
      ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  const int err_fd =
      ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (null_fd < 0 || out_fd < 0 || err_fd < 0) ::_exit(127);
  ::dup2(null_fd, STDIN_FILENO);
  ::dup2(out_fd, STDOUT_FILENO);
  ::dup2(err_fd, STDERR_FILENO);
  ::execv(args[0], args.data());
  ::_exit(127);
}

// VmHWM of a running process in kB; 0 once it has exited.
int64_t PeakRssKbOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kb) == 1) return kb;
  }
  return 0;
}

bool Exists(const std::string& path) {
  struct stat st;
  return ::lstat(path.c_str(), &st) == 0;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ChildResult RunChild(const std::vector<std::string>& argv, bool sample_rss) {
  // Each call captures into its own files, so threads may run children
  // side by side.
  static std::atomic<int64_t> next_capture{0};
  const std::string capture = "child" + std::to_string(next_capture++);
  ChildResult result;
  const double start = NowSeconds();
  const pid_t pid = Spawn(argv, capture + ".out", capture + ".err");
  if (pid < 0) return result;
  int status = 0;
  if (sample_rss) {
    // getrusage's peak would include the pages the child shared with this
    // process before exec, so sample the child's own VmHWM until it exits
    // and keep the last sample (VmHWM only grows after exec).
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      const int64_t kb = PeakRssKbOf(pid);
      if (kb > 0) result.max_rss_kb = kb;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  } else {
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  result.wall_s = NowSeconds() - start;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  result.out = ReadText(capture + ".out");
  result.err = ReadText(capture + ".err");
  ::unlink((capture + ".out").c_str());
  ::unlink((capture + ".err").c_str());
  return result;
}

Daemon::~Daemon() { Kill(); }

void Daemon::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

bool Daemon::Start(const std::string& binary, const std::string& socket,
                   const std::vector<std::string>& extra, std::string* error) {
  Kill();
  socket_ = socket;
  std::vector<std::string> argv = {binary, "--socket", socket};
  argv.insert(argv.end(), extra.begin(), extra.end());
  pid_ = Spawn(argv, "daemon.out", "daemon.err");
  if (pid_ < 0) {
    *error = "cannot fork folearnd";
    return false;
  }
  const double deadline = NowSeconds() + 30.0;
  while (NowSeconds() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "folearnd exited during start: " + ReadText("daemon.err");
      return false;
    }
    folearn::StatusOr<folearn::Client> client =
        folearn::Client::Connect(socket_, 1000);
    if (client.ok() && client->Ping().ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  *error = "folearnd did not answer a ping within 30 s";
  Kill();
  return false;
}

int64_t Daemon::PeakRssKb() const { return PeakRssKbOf(pid_); }

bool Daemon::Shutdown(std::string* error) {
  if (pid_ <= 0) {
    *error = "folearnd is not running";
    return false;
  }
  folearn::StatusOr<folearn::Client> client =
      folearn::Client::Connect(socket_, 5000);
  if (!client.ok() || !client->RequestShutdown().ok()) {
    *error = "shutdown request failed";
    Kill();
    return false;
  }
  const double deadline = NowSeconds() + 30.0;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (NowSeconds() > deadline) {
      *error = "folearnd did not exit within 30 s of shutdown";
      Kill();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "folearnd exited uncleanly (status " + std::to_string(status) +
             "): " + ReadText("daemon.err");
    return false;
  }
  if (Exists(socket_)) {
    *error = "folearnd left its socket file behind";
    return false;
  }
  return true;
}

}  // namespace perfbench
