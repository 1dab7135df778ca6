#ifndef ENTROPYDB_BENCH_E2E_TRACE_H_
#define ENTROPYDB_BENCH_E2E_TRACE_H_

// Client-side spans: recorded in memory around calls into each layer,
// written out once the run ends as a Chrome trace plus a per-layer
// self-time table.

#include <cstdint>
#include <string>
#include <vector>

#include "entropydb.h"

namespace e2e {

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// One layer's interval. `parent` indexes the same log (-1 for a root);
/// every span of one request carries that request's id.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request = 0;
};

/// \brief The spans of one thread (one track in the trace).
class SpanLog {
 public:
  explicit SpanLog(std::string track) : track_(std::move(track)) {}

  /// Appends a span and returns its index, for use as a parent.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request) {
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Closes a span opened with Add(name, start, start, ...).
  void End(int32_t index, int64_t end_ns) { spans_[index].end_ns = end_ns; }

  const std::string& track() const { return track_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string track_;
  std::vector<Span> spans_;
};

/// One row of the self-time table: a span name's call count, total time,
/// self time (duration minus the part its child spans cover) and median
/// self time.
struct LayerRow {
  std::string name;
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double self_p50_us = 0.0;
};

std::vector<LayerRow> SelfTimes(const std::vector<const SpanLog*>& logs);

/// Writes the logs as Chrome trace-event JSON (open in chrome://tracing or
/// ui.perfetto.dev), keeping at most `max_per_log` spans of each log.
entropydb::Status WriteChromeTrace(const std::string& path,
                                   const std::vector<const SpanLog*>& logs,
                                   size_t max_per_log);

entropydb::Status WriteLayerTable(const std::string& path,
                                  const std::vector<LayerRow>& rows);

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);

/// The median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> values);

}  // namespace e2e

#endif  // ENTROPYDB_BENCH_E2E_TRACE_H_
