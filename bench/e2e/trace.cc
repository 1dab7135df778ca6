#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace e2e {

using entropydb::Status;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<LayerRow> SelfTimes(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerRow> rows;
  std::map<std::string, std::vector<double>> self_us;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const int64_t dur = spans[i].end_ns - spans[i].start_ns;
      const int64_t self = std::max<int64_t>(0, dur - child_ns[i]);
      LayerRow& row = rows[spans[i].name];
      row.name = spans[i].name;
      ++row.count;
      row.total_ms += dur / 1e6;
      row.self_ms += self / 1e6;
      self_us[spans[i].name].push_back(self / 1e3);
    }
  }
  std::vector<LayerRow> out;
  for (auto& [name, row] : rows) {
    row.self_p50_us = Percentile(std::move(self_us[name]), 0.5);
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

Status WriteChromeTrace(const std::string& path,
                        const std::vector<const SpanLog*>& logs,
                        size_t max_per_log) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(out, "{\"traceEvents\": [\n");
  bool first = true;
  for (size_t tid = 0; tid < logs.size(); ++tid) {
    std::fprintf(out,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %zu, \"args\": {\"name\": \"%s\"}}",
                 first ? "" : ",\n", tid, logs[tid]->track().c_str());
    first = false;
    const std::vector<Span>& spans = logs[tid]->spans();
    const size_t n = std::min(spans.size(), max_per_log);
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans[i];
      std::fprintf(out,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"request\": %llu, \"parent\": %d}}",
                   s.name, tid, (s.start_ns - origin) / 1e3,
                   (s.end_ns - s.start_ns) / 1e3,
                   static_cast<unsigned long long>(s.request), s.parent);
    }
  }
  std::fprintf(out, "\n]}\n");
  if (std::ferror(out) != 0 || std::fclose(out) != 0) {
    return Status::IOError("write failure on " + path);
  }
  return Status::OK();
}

Status WriteLayerTable(const std::string& path,
                       const std::vector<LayerRow>& rows) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IOError("cannot write " + path);
  std::fprintf(out, "%-26s %9s %12s %12s %12s\n", "span", "count",
               "total_ms", "self_ms", "self_p50_us");
  for (const LayerRow& r : rows) {
    std::fprintf(out, "%-26s %9zu %12.3f %12.3f %12.3f\n", r.name.c_str(),
                 r.count, r.total_ms, r.self_ms, r.self_p50_us);
  }
  if (std::ferror(out) != 0 || std::fclose(out) != 0) {
    return Status::IOError("write failure on " + path);
  }
  return Status::OK();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const size_t i = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + i, values.end());
  return values[i];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace e2e
