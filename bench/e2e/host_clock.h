#ifndef ENTROPYDB_BENCH_E2E_HOST_CLOCK_H_
#define ENTROPYDB_BENCH_E2E_HOST_CLOCK_H_

// How fast the shared host is running, sampled while the benchmark runs,
// so that timings can be reported at one reference speed.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace e2e {

/// \brief Samples the host's speed on a thread of its own until destroyed.
///
/// The VM this benchmark was written on shares its host with other
/// tenants, and for minutes at a time the same code runs up to a third
/// slower or faster; every timing of a run moves with it. Every
/// kSampleEvery the thread times a fixed piece of the benchmark's own
/// work on its thread CPU clock, so that waiting for a core does not
/// count: one-byte write and read pairs on a private pipe, a system
/// call's round trip through the kernel. Of the fixed pieces of work
/// tried (a multiply-add chain, a pointer chase, hash probes and this
/// one), this one's time tracked the server's timings most closely
/// (bench/e2e/README.md, "Host speed"). The thread uses under 1% of one
/// core.
class HostClock {
 public:
  /// Nanoseconds per write and read pair at the reference speed, a
  /// frozen value within the range the VM above shows.
  static constexpr double kReferenceNs = 800.0;

  /// Starts sampling; a failed pipe() ends the program.
  HostClock();
  /// Stops sampling and joins the thread.
  ~HostClock();
  HostClock(const HostClock&) = delete;
  HostClock& operator=(const HostClock&) = delete;

  /// How much slower than the reference the host ran over [from_ns, to_ns)
  /// on the NowNs clock: the median sample taken in the interval over
  /// kReferenceNs, so 1.2 means 20% slower. A time measured over the
  /// interval, divided by the factor, is that time at the reference
  /// speed; a rate is multiplied by it. With no sample in the interval,
  /// the median of every sample so far.
  double Factor(int64_t from_ns, int64_t to_ns) const;

 private:
  void Loop();

  int pipe_[2] = {-1, -1};
  mutable std::mutex mu_;
  std::vector<std::pair<int64_t, double>> samples_;  ///< (end ns, ns per pair)
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace e2e

#endif  // ENTROPYDB_BENCH_E2E_HOST_CLOCK_H_
