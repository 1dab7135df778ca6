#include "host_clock.h"

#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "trace.h"

namespace e2e {
namespace {

constexpr int kPairs = 100;  // about 80 us per sample
constexpr auto kSampleEvery = std::chrono::milliseconds(10);

int64_t ThreadCpuNs() {
  timespec ts;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

HostClock::HostClock() {
  if (::pipe(pipe_) != 0) {
    std::perror("e2e_bench: pipe for the host clock");
    std::exit(1);
  }
  thread_ = std::thread([this] { Loop(); });
}

HostClock::~HostClock() {
  stop_ = true;
  thread_.join();
  ::close(pipe_[0]);
  ::close(pipe_[1]);
}

void HostClock::Loop() {
  while (!stop_.load()) {
    const int64_t cpu0 = ThreadCpuNs();
    char c = 'x';
    int pairs = 0;
    // The pipe never holds more than one byte, so neither call blocks.
    while (pairs < kPairs && ::write(pipe_[1], &c, 1) == 1 &&
           ::read(pipe_[0], &c, 1) == 1) {
      ++pairs;
    }
    if (pairs > 0) {
      const double ns = static_cast<double>(ThreadCpuNs() - cpu0) / pairs;
      std::lock_guard<std::mutex> lock(mu_);
      samples_.emplace_back(NowNs(), ns);
    }
    std::this_thread::sleep_for(kSampleEvery);
  }
}

double HostClock::Factor(int64_t from_ns, int64_t to_ns) const {
  std::vector<double> in, all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [at, ns] : samples_) {
      if (at >= from_ns && at < to_ns) in.push_back(ns);
      all.push_back(ns);
    }
  }
  const double ns = Median(in.empty() ? all : in);
  return ns > 0 ? ns / kReferenceNs : 1.0;
}

}  // namespace e2e
