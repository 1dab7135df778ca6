#include "process.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace e2e {

using entropydb::Result;
using entropydb::Status;

Result<Child> Child::Spawn(const std::vector<std::string>& argv,
                           const std::string& log_path) {
  // Everything the child touches between fork and exec is prepared here:
  // only async-signal-safe calls may run in the child of a threaded
  // parent.
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    return Status::IOError("open " + log_path + ": " + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  Child child;
  child.pid_ = pid;
  child.log_ = log_path;
  return child;
}

Child::~Child() { Stop(0); }

Child::Child(Child&& other) noexcept
    : pid_(other.pid_), code_(other.code_), log_(std::move(other.log_)) {
  other.pid_ = -1;
}

Child& Child::operator=(Child&& other) noexcept {
  if (this != &other) {
    Stop(0);
    pid_ = other.pid_;
    code_ = other.code_;
    log_ = std::move(other.log_);
    other.pid_ = -1;
  }
  return *this;
}

bool Child::Exited() {
  if (pid_ < 0) return true;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == 0) return false;
  code_ = r == pid_ && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  pid_ = -1;
  return true;
}

void Child::Stop(int grace_ms) {
  if (pid_ < 0) return;
  if (grace_ms > 0) {
    ::kill(pid_, SIGTERM);
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(grace_ms);
    while (std::chrono::steady_clock::now() < until) {
      if (Exited()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

double CpuSeconds(pid_t pid) {
  // The process CPU clock counts every thread's run time to the
  // nanosecond; /proc/<pid>/stat only in clock ticks (10 ms), too coarse
  // for a half-second slice.
  clockid_t clock;
  timespec ts;
  if (::clock_getcpuclockid(pid, &clock) == 0 &&
      ::clock_gettime(clock, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
  }
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  // Fields after the parenthesised command name, which may hold spaces:
  // state is field 3, utime and stime are fields 14 and 15.
  const size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(line.substr(close + 2));
  std::string skip;
  for (int f = 3; f < 14; ++f) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double StatusField(pid_t pid, const char* key) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const size_t len = std::strlen(key);
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

}  // namespace e2e
