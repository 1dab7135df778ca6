#ifndef ENTROPYDB_BENCH_E2E_PROCESS_H_
#define ENTROPYDB_BENCH_E2E_PROCESS_H_

// Child processes (the server and the append writer) and the /proc
// readings the benchmark takes of them.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "entropydb.h"

namespace e2e {

/// \brief A spawned child whose stdout goes to a log file. The destructor
/// kills (SIGKILL) and reaps it if it is still running; the child also
/// gets SIGKILL if the benchmark dies first, so no server outlives a run.
class Child {
 public:
  /// Runs argv[0] (a path) with its stdout in `log_path`.
  static entropydb::Result<Child> Spawn(const std::vector<std::string>& argv,
                                        const std::string& log_path);

  Child() = default;
  ~Child();
  Child(Child&& other) noexcept;
  Child& operator=(Child&& other) noexcept;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }
  const std::string& log_path() const { return log_; }

  /// Non-blocking reap: true once the child has exited (its code then in
  /// exit_code()).
  bool Exited();
  int exit_code() const { return code_; }

  /// SIGTERM, up to `grace_ms` for a clean exit, then SIGKILL; always
  /// reaps.
  void Stop(int grace_ms);

 private:
  pid_t pid_ = -1;
  int code_ = -1;
  std::string log_;
};

/// CPU time of every thread of `pid` (user and system), in seconds.
double CpuSeconds(pid_t pid);
/// A "<key>: <n> kB"-style field of /proc/<pid>/status, as a number.
double StatusField(pid_t pid, const char* key);
/// Bytes of every regular file under `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace e2e

#endif  // ENTROPYDB_BENCH_E2E_PROCESS_H_
