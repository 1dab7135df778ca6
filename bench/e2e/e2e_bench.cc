// End-to-end serving benchmark: one load-generator process driving a real
// entropydb_serve over TCP, with a flights store built in this process.
//
//   e2e_bench --workload explore|dashboard|batch|ingest --seed N
//             --seconds S --trace 0|1 [--out FILE] [--workdir DIR]
//
// A run builds its own versioned root three times (set-up time is the
// median), drives the workload for S seconds, checks every answer it can
// check, and prints "workload metric value unit" lines followed by one
// JSON result line. With --trace 1 the window is split: the first half
// runs untraced, the second with client-side spans, and afterwards the
// workload's first requests are replayed in-process through each layer's
// public calls; the run then reports the per-layer metrics and writes a
// Chrome trace and a self-time table. bench/e2e/README.md maps every
// metric to the layer it comes from.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "entropydb.h"
#include "host_clock.h"
#include "process.h"
#include "replay.h"
#include "trace.h"
#include "workload.h"

namespace e2e {
namespace {

using namespace entropydb;
namespace fs = std::filesystem;

constexpr const char* kWorkloads[] = {"explore", "dashboard", "batch",
                                       "ingest"};

/// The window is cut into slices of kSliceSeconds that alternate between
/// two phases, both closed loop, after a warm-up of kWarmSeconds that is
/// not measured. Even slices are latency slices: one connection, each
/// request sent when the previous reply arrives, so its latency is the
/// server's answer plus the socket, with no queueing behind other
/// requests. Odd slices are throughput slices: kConnections connections.
/// Alternating, rather than running one phase after the other, lets both
/// phases sample the whole window, and the host's speed drifts within a
/// window. Each timing is taken per slice and the run reports the median
/// over its phase's slices, so a burst of outside load that hits a few
/// slices does not move it. No phase is open loop: on a VM a request that
/// finds the server's CPU idle first waits for the hypervisor to wake it,
/// and that wait varied fourfold from second to second
/// (bench/e2e/README.md, "Process model").
constexpr double kWarmSeconds = 1.0;
constexpr size_t kConnections = 2;
constexpr double kSliceSeconds = 0.5;

constexpr size_t kRows = 2'000'000;
constexpr size_t kSetups = 3;
constexpr size_t kExploreStream = 1u << 17;
constexpr size_t kReplayRequests = 2000;
constexpr double kAppendEverySeconds = 3.0;
constexpr size_t kIngestBatchRows = 100'000;
constexpr int kStopGraceMs = 5000;
/// A run that stalls (hung server, stuck append) dies by SIGALRM inside
/// the 180 s a run may take; its children die with it (PR_SET_PDEATHSIG).
constexpr unsigned kRunDeadlineSeconds = 170;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Progress on stderr, so a slow phase shows where it is.
void Log(const char* phase, Clock::time_point since) {
  std::fprintf(stderr, "e2e_bench: %s done after %.2f s\n", phase,
               Seconds(Clock::now() - since));
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(*r);
}

void Must(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

double Mean(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

// ------------------------------------------------------------ connections

/// \brief A load connection: the codec calls WireClient::Call makes
/// (EncodeRequest, EncodeFrame, FrameDecoder, ParseResponse) on a plain
/// socket, so that a traced run can stamp encode / send / wait / decode
/// separately. Untraced, it reads no clock.
class Conn {
 public:
  static Result<Conn> Open(uint16_t port) {
    Conn c;
    c.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (c.fd_ < 0) return Status::IOError("socket failed");
    // A hung server fails the run instead of hanging it.
    timeval tv{10, 0};
    ::setsockopt(c.fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(c.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      return Status::IOError(std::string("connect: ") + std::strerror(errno));
    }
    return c;
  }

  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(Conn&& o) noexcept : fd_(o.fd_), decoder_(std::move(o.decoder_)) {
    o.fd_ = -1;
  }
  Conn& operator=(Conn&&) = delete;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  Result<WireResponse> Call(const Request& req, SpanLog* log, uint64_t id) {
    const int64_t t0 = log != nullptr ? NowNs() : 0;
    const std::string frame = EncodeFrame(EncodeRequest(req));
    const int64_t t1 = log != nullptr ? NowNs() : 0;
    for (size_t sent = 0; sent < frame.size();) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("send failed");
      sent += static_cast<size_t>(n);
    }
    const int64_t t2 = log != nullptr ? NowNs() : 0;
    char buf[1 << 14];
    std::optional<std::string> payload;
    for (;;) {
      ASSIGN_OR_RETURN(payload, decoder_.Next());
      if (payload.has_value()) break;
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IOError("recv failed or connection closed");
      decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
    const int64_t t3 = log != nullptr ? NowNs() : 0;
    Result<WireResponse> resp = ParseResponse(*payload);
    if (log != nullptr) {
      const int64_t t4 = NowNs();
      const int32_t root = log->Add("client.request", t0, t4, -1, id);
      log->Add("client.encode", t0, t1, root, id);
      log->Add("client.send", t1, t2, root, id);
      log->Add("client.wait", t2, t3, root, id);
      log->Add("client.decode", t3, t4, root, id);
    }
    return resp;
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

WireResponse MustCall(WireClient& client, const Request& req,
                      const std::string& what) {
  WireResponse resp = Must(client.Call(req), what);
  if (!resp.ok) Die(what + ": ERR " + resp.code + " " + resp.message);
  return resp;
}

Request QueryRequest(const std::string& text) {
  Request req;
  req.type = CommandType::kQuery;
  req.query = text;
  return req;
}

Request Command(CommandType type, uint64_t version = 0) {
  Request req;
  req.type = type;
  req.version = version;
  return req;
}

/// STATS lines as counters.
std::map<std::string, double> Stats(WireClient& control) {
  std::map<std::string, double> out;
  for (const std::string& line :
       MustCall(control, Command(CommandType::kStats), "STATS").lines) {
    const size_t space = line.find(' ');
    if (space != std::string::npos) {
      out[line.substr(0, space)] =
          std::strtod(line.c_str() + space + 1, nullptr);
    }
  }
  return out;
}

uint64_t CurrentVersion(const WireResponse& version_reply) {
  for (const std::string& line : version_reply.lines) {
    if (line.rfind("current ", 0) == 0) return std::stoull(line.substr(8));
  }
  return 0;
}

// ----------------------------------------------------------------- set-up

struct Server {
  Child process;
  uint16_t port = 0;
};

/// One set-up's times as measured, and the host's speed factor over it.
struct SetupTimes {
  double total_s = 0.0;
  double build_s = 0.0;
  double save_s = 0.0;
  double publish_s = 0.0;
  double open_s = 0.0;
  double host = 1.0;
};

/// Waits for the server's "serving <path> on 127.0.0.1:<port>" line.
uint16_t AwaitPort(Child& server) {
  const auto until = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < until) {
    std::ifstream in(server.log_path());
    std::string line;
    if (std::getline(in, line)) {
      const size_t colon = line.rfind(':');
      if (line.rfind("serving ", 0) == 0 && colon != std::string::npos) {
        return static_cast<uint16_t>(std::stoul(line.substr(colon + 1)));
      }
    }
    if (server.Exited()) {
      Die("entropydb_serve exited with code " +
          std::to_string(server.exit_code()));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Die("entropydb_serve did not report its port within 60 s");
}

/// From the in-memory table to the first OK answer: build the sharded
/// store, save it as v1 of a fresh versioned root, publish, spawn the
/// server, and query until it answers.
SetupTimes SetUp(const Table& table, const std::string& root,
                 const std::string& bin_dir, const HostClock& host,
                 Server* server, std::shared_ptr<ShardedStore>* built) {
  SetupTimes t;
  const int64_t began_ns = NowNs();
  const auto t0 = Clock::now();
  ShardedOptions opts;
  opts.num_shards = 8;
  opts.scheme = PartitionScheme::kAttribute;
  opts.partition_attr = 0;  // fl_date
  opts.store.num_summaries = 3;
  opts.store.total_budget = 3000;
  opts.store.num_stratified_samples = 2;
  opts.store.uniform_sample = true;
  *built = Must(ShardedStore::Build(table, opts), "ShardedStore::Build");
  const auto t1 = Clock::now();
  auto versions =
      Must(VersionSet::Open(root, Env::Default()), "VersionSet::Open");
  const uint64_t id = versions->BeginVersion();
  Must((*built)->Save(versions->VersionDir(id)), "ShardedStore::Save");
  const auto t2 = Clock::now();
  Must(versions->Publish(id), "VersionSet::Publish");
  const auto t3 = Clock::now();
  server->process =
      Must(Child::Spawn({bin_dir + "/entropydb_serve", "--store", root,
                         "--port", "0"},
                        root + ".server.log"),
           "spawn entropydb_serve");
  server->port = AwaitPort(server->process);
  Result<WireClient> client = WireClient::Connect("127.0.0.1", server->port);
  for (int tries = 0; !client.ok() && tries < 1000; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    client = WireClient::Connect("127.0.0.1", server->port);
  }
  WireClient c = Must(std::move(client), "connect to entropydb_serve");
  MustCall(c, QueryRequest("COUNT(*)"), "first query");
  const auto t4 = Clock::now();
  t.total_s = Seconds(t4 - t0);
  t.build_s = Seconds(t1 - t0);
  t.save_s = Seconds(t2 - t1);
  t.publish_s = Seconds(t3 - t2);
  t.open_s = Seconds(t4 - t3);
  t.host = host.Factor(began_ns, NowNs());
  return t;
}

// ---------------------------------------------------------------- traffic

/// What a load thread sends as stream request i, and how it checks the
/// reply.
struct Traffic {
  std::vector<std::string> explore;             ///< explore, ingest
  std::vector<std::string> dashboard;           ///< dashboard's 256
  std::vector<uint16_t> ranks;                  ///< dashboard picks
  std::vector<std::vector<std::string>> known;  ///< dashboard miss bytes
  std::vector<Request> frames;                  ///< batch

  size_t QueriesPer() const { return frames.empty() ? 1 : 64; }

  Request Make(uint64_t i) const {
    if (!frames.empty()) return frames[i % frames.size()];
    if (!ranks.empty()) {
      return QueryRequest(dashboard[ranks[i % ranks.size()]]);
    }
    return QueryRequest(explore[i % explore.size()]);
  }

  /// "" when the reply is well formed and, for dashboard, byte-identical
  /// to the miss that populated the cache.
  std::string Check(uint64_t i, const WireResponse& r) const {
    if (!frames.empty()) {
      if (r.lines.size() != 64) return "BATCH reply without 64 lines";
      for (const std::string& line : r.lines) {
        if (line.rfind("estimate ", 0) != 0) return "bad BATCH line: " + line;
      }
      return "";
    }
    if (r.lines.size() < 2 || r.lines[0].rfind("estimate ", 0) != 0) {
      return "malformed QUERY reply";
    }
    if (ranks.empty()) return "";
    const auto& want = known[ranks[i % ranks.size()]];
    if (!std::equal(want.begin(), want.end(), r.lines.begin(),
                    r.lines.end() - 1)) {
      return "cache hit differs from its miss for: " +
             dashboard[ranks[i % ranks.size()]];
    }
    return "";
  }
};

/// The window, cut into slices of kSliceSeconds.
struct Slices {
  int64_t start_ns = 0;
  int64_t slice_ns = 1;
  size_t count = 0;

  /// The slice holding `t_ns`, or `count` outside the window.
  size_t At(int64_t t_ns) const {
    if (t_ns < start_ns) return count;
    return std::min(count, static_cast<size_t>((t_ns - start_ns) / slice_ns));
  }
  int64_t Ns(size_t k) const {
    return start_ns + static_cast<int64_t>(k) * slice_ns;
  }
  double seconds() const { return slice_ns / 1e9; }
  static bool IsLatency(size_t k) { return k % 2 == 0; }
};

struct ThreadResult {
  /// Per slice, by completion: latencies of requests sent and answered
  /// within one latency slice, and requests answered OK.
  std::vector<std::vector<float>> lat_us;
  std::vector<uint64_t> answered;
  /// Send time minus the previous reply's arrival: the generator's own gap.
  std::vector<float> gap_us;
  uint64_t requests = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> errors;
  std::string mismatch;
};

/// One measured window. Each end-to-end timing is the median over its
/// phase's slices of the slice's value at the reference host speed: as
/// measured, divided (a rate: multiplied) by the host's factor over the
/// slice (bench/e2e/README.md, "Host speed").
struct Window {
  Slices slices;
  ThreadResult all;  ///< every connection's results, merged
  std::vector<double> cpu;   ///< server CPU seconds at each slice boundary
  std::vector<double> host;  ///< HostClock::Factor of each slice
  size_t per = 1;  ///< queries per request
  uint64_t next_index = 0;

  uint64_t attempted() const { return all.requests * per; }
  uint64_t failed() const { return all.failed * per; }

  /// Slice k as measured: its median latency, queries answered per
  /// second, and server CPU per answered query.
  double SliceLatency(size_t k) const {
    return Percentile({all.lat_us[k].begin(), all.lat_us[k].end()}, 0.5);
  }
  double SliceQps(size_t k) const {
    return all.answered[k] * per / slices.seconds();
  }
  double SliceCpuUs(size_t k) const {
    const double n = static_cast<double>(all.answered[k] * per);
    return n > 0 ? (cpu[k + 1] - cpu[k]) * 1e6 / n : 0.0;
  }

  size_t LatencyCount() const {
    size_t n = 0;
    for (size_t k = 0; k < slices.count; k += 2) n += all.lat_us[k].size();
    return n;
  }
  size_t PhaseSlices() const { return slices.count / 2; }

  double Latency() const {
    return Median(Over(0, [&](size_t k) { return SliceLatency(k) / host[k]; }));
  }
  double Qps() const {
    return Median(Over(1, [&](size_t k) { return SliceQps(k) * host[k]; }));
  }
  /// Over the throughput slices: the CPU a query costs a busy server.
  double CpuUsPerQuery() const {
    return Median(Over(1, [&](size_t k) { return SliceCpuUs(k) / host[k]; }));
  }
  double HostFactor() const { return Median(host); }

  /// As measured: the medians over the phases' slices, and a percentile
  /// of the latency slices' pooled latencies (a slice holds too few for a
  /// p99 of its own).
  double MeasuredLatency() const {
    return Median(Over(0, [&](size_t k) { return SliceLatency(k); }));
  }
  double MeasuredQps() const {
    return Median(Over(1, [&](size_t k) { return SliceQps(k); }));
  }
  double MeasuredCpuUsPerQuery() const {
    return Median(Over(1, [&](size_t k) { return SliceCpuUs(k); }));
  }
  double PooledLatency(double p) const {
    std::vector<double> pooled;
    for (size_t k = 0; k < slices.count; k += 2) {
      pooled.insert(pooled.end(), all.lat_us[k].begin(), all.lat_us[k].end());
    }
    return Percentile(pooled, p);
  }

  /// `f` of every other slice from `first` (0: latency, 1: throughput).
  template <typename F>
  std::vector<double> Over(size_t first, F f) const {
    std::vector<double> out;
    for (size_t k = first; k < slices.count; k += 2) out.push_back(f(k));
    return out;
  }
};

/// One load connection, sending its next request when the previous reply
/// arrives and taking stream indexes from a shared counter. Connection 0
/// runs from the warm-up on; the others run only in throughput slices.
void Drive(const Traffic& traffic, uint16_t port, size_t c,
           const Slices& slices, std::atomic<uint64_t>* next, SpanLog* log,
           ThreadResult* out) {
  out->lat_us.resize(slices.count + 1);
  out->answered.resize(slices.count + 1);
  Result<Conn> conn = Conn::Open(port);
  if (!conn.ok()) {
    out->mismatch = "load connection: " + conn.status().ToString();
    return;
  }
  // Runs of [begin, end): the whole window for connection 0, each
  // throughput slice for the others.
  for (size_t k = 1; k < slices.count; k += 2) {
    const int64_t begin =
        c == 0 ? slices.start_ns - static_cast<int64_t>(kWarmSeconds * 1e9)
               : slices.Ns(k);
    const int64_t end = slices.Ns(c == 0 ? slices.count : k + 1);
    const int64_t now = NowNs();
    if (begin > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(begin - now));
    }
    int64_t done = NowNs();
    while (done < end) {
      const uint64_t i = next->fetch_add(1);
      const int64_t sent = NowNs();
      out->gap_us.push_back((sent - done) / 1e3f);
      Result<WireResponse> r = conn->Call(traffic.Make(i), log, i);
      done = NowNs();
      ++out->requests;
      std::string code;
      if (!r.ok()) {
        code = "TRANSPORT";
      } else if (!r->ok) {
        code = r->code;
        if (out->errors[code] == 0) {
          std::fprintf(stderr, "e2e_bench: %s for %s: %s\n", code.c_str(),
                       traffic.Make(i).query.c_str(), r->message.c_str());
        }
      } else {
        std::string bad = traffic.Check(i, *r);
        if (!bad.empty() && out->mismatch.empty()) out->mismatch = bad;
        const size_t slice = slices.At(done);
        ++out->answered[slice];
        if (sent >= slices.start_ns && slices.At(sent) == slice &&
            Slices::IsLatency(slice)) {
          out->lat_us[slice].push_back((done - sent) / 1e3f);
        }
      }
      if (!code.empty()) {
        ++out->failed;
        ++out->errors[code];
      }
      if (!r.ok()) return;
    }
    if (c == 0) return;
  }
}

/// Runs one window of about `seconds` (an even number of slices) after a
/// warm-up, against the server `pid`; `tick` runs on the calling thread
/// every few milliseconds until the window ends (server sampling, the
/// ingest writer). `logs` (one per connection) turns client spans on.
Window RunWindow(const Traffic& traffic, uint16_t port, pid_t pid,
                 const HostClock& host, double seconds, uint64_t first,
                 std::vector<SpanLog>* logs,
                 const std::function<void()>& tick) {
  Window w;
  w.per = traffic.QueriesPer();
  Slices& slices = w.slices;
  slices.slice_ns = static_cast<int64_t>(kSliceSeconds * 1e9);
  slices.count =
      2 * std::max<size_t>(1, static_cast<size_t>(std::ceil(
                                  seconds / (2 * kSliceSeconds) - 1e-9)));
  // Connections open before the warm-up starts.
  slices.start_ns =
      NowNs() + 50'000'000 + static_cast<int64_t>(kWarmSeconds * 1e9);
  const int64_t end = slices.Ns(slices.count);
  std::atomic<uint64_t> next{first};
  std::vector<ThreadResult> results(kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back(Drive, std::cref(traffic), port, c, std::cref(slices),
                         &next, logs != nullptr ? &(*logs)[c] : nullptr,
                         &results[c]);
  }
  for (;;) {
    const int64_t now = NowNs();
    const int64_t boundary = slices.Ns(w.cpu.size());
    if (now >= boundary && w.cpu.size() <= slices.count) {
      w.cpu.push_back(CpuSeconds(pid));
      continue;
    }
    if (now >= end) break;
    tick();
    const int64_t wake = std::min(now + 5'000'000, boundary);
    const int64_t left = wake - NowNs();
    if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
  }
  for (std::thread& t : threads) t.join();
  for (size_t k = 0; k < slices.count; ++k) {
    w.host.push_back(host.Factor(slices.Ns(k), slices.Ns(k + 1)));
  }

  w.next_index = next.load();
  ThreadResult& all = w.all;
  all.lat_us.resize(slices.count + 1);
  all.answered.resize(slices.count + 1);
  for (ThreadResult& r : results) {
    for (size_t k = 0; k <= slices.count; ++k) {
      all.lat_us[k].insert(all.lat_us[k].end(), r.lat_us[k].begin(),
                           r.lat_us[k].end());
      all.answered[k] += r.answered[k];
    }
    all.gap_us.insert(all.gap_us.end(), r.gap_us.begin(), r.gap_us.end());
    all.requests += r.requests;
    all.failed += r.failed;
    for (const auto& [code, n] : r.errors) all.errors[code] += n;
    if (all.mismatch.empty()) all.mismatch = r.mismatch;
  }
  return w;
}

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 24.0;
  bool trace = false;
  std::string out;
  std::string workdir = "bench/e2e/build/out";
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value != "0";
    } else if (flag == "--out") {
      o.out = value;
    } else if (flag == "--workdir") {
      o.workdir = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (o.seconds < 2.0) Die("--seconds must be at least 2");
  return o;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

int Run(const Options& opt) {
  ::alarm(kRunDeadlineSeconds);
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), opt.workload) ==
      std::end(kWorkloads)) {
    Die("unknown workload '" + opt.workload + "'");
  }
  const bool ingest = opt.workload == "ingest";
  const std::string bin_dir =
      fs::read_symlink("/proc/self/exe").parent_path().string();
  const std::string run_dir =
      (fs::path(opt.workdir) / (opt.workload + "-" + std::to_string(opt.seed) +
                                "-" + std::to_string(::getpid())))
          .string();
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);

  const auto began = Clock::now();
  HostClock host;
  // ------------------------------------------------------------- inputs
  const Dataset data = Must(Dataset::Make(kRows), "dataset");
  const Table& table = *data.table;
  const Streams streams(data, opt.seed);
  if (Streams(data, opt.seed).Fingerprint() != streams.Fingerprint() ||
      Streams(data, opt.seed + 1).Fingerprint() == streams.Fingerprint()) {
    Die("query streams are not a function of the seed");
  }
  Traffic traffic;
  if (opt.workload == "explore" || ingest) {
    traffic.explore = streams.Explore(kExploreStream);
  } else if (opt.workload == "dashboard") {
    traffic.dashboard = streams.DashboardSet();
    traffic.ranks = streams.DashboardRanks(kExploreStream);
  } else {
    // Frame f and frame f + 575 carry the same points (4,600 = 575 * 8).
    for (size_t f = 0; f < 575; ++f) {
      Request req = Command(CommandType::kBatch);
      req.queries = streams.BatchFrame(f);
      traffic.frames.push_back(std::move(req));
    }
  }
  const std::vector<AccuracyQuery> accuracy = streams.Accuracy();

  // Ingest's append batches: fresh flights rows at a seed of their own.
  const size_t appends =
      ingest ? static_cast<size_t>(std::ceil(
                   (opt.seconds + 2 * kWarmSeconds) / kAppendEverySeconds)) + 1
             : 0;
  std::vector<std::string> batches;
  for (size_t k = 0; k < appends; ++k) {
    FlightsConfig config;
    config.num_rows = kIngestBatchRows;
    config.fine_grained = true;
    config.seed = opt.seed * 1000 + k + 1;
    const std::string path = run_dir + "/batch" + std::to_string(k) + ".csv";
    Must(WriteCsv(*Must(FlightsGenerator::Generate(config), "batch rows"),
                  path),
         "write batch");
    batches.push_back(path);
  }

  Log("inputs", began);

  // ------------------------------------------------------------- set-up
  std::vector<SetupTimes> setups;
  Server server;
  std::shared_ptr<ShardedStore> built;
  const std::string root = run_dir + "/root";
  for (size_t k = 0; k < kSetups; ++k) {
    if (k > 0) {
      server.process.Stop(kStopGraceMs);
      fs::remove_all(root);
    }
    setups.push_back(SetUp(table, root, bin_dir, host, &server, &built));
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  std::vector<double> iterations;
  double max_err = 0.0;
  for (size_t s = 0; s < built->num_shards(); ++s) {
    for (size_t k = 0; k < built->shard(s).size(); ++k) {
      const SolverReport& r = built->shard(s).summary(k).solver_report();
      iterations.push_back(static_cast<double>(r.iterations));
      max_err = std::max(max_err, r.final_error);
    }
  }
  built.reset();
  const double store_bytes_per_row =
      static_cast<double>(DirBytes(root + "/v1")) /
      static_cast<double>(table.num_rows());
  const pid_t pid = server.process.pid();

  // The reference: this process's own engine over the same v1.
  const std::shared_ptr<EntropyEngine> reference =
      Must(EntropyEngine::Open(root), "EntropyEngine::Open");
  std::vector<std::string> expected;
  for (const AccuracyQuery& a : accuracy) {
    const ParsedQuery parsed = Must(
        ParseQuery(a.text, reference->attr_names(), reference->domains()),
        "parse " + a.text);
    expected.push_back(
        ResultLines(Must(AnswerParsed(*reference, parsed), a.text)).front());
  }

  Log("set-up", began);

  // The control session pins v1, so the accuracy pass reads the version
  // the reference answered even after ingest publishes newer ones.
  WireClient control =
      Must(WireClient::Connect("127.0.0.1", server.port), "control connect");
  MustCall(control, Command(CommandType::kOpen, 1), "OPEN 1");
  if (!traffic.dashboard.empty()) {
    // Warm the cache; each miss's bytes are what every later hit must be.
    for (const std::string& q : traffic.dashboard) {
      WireResponse r = MustCall(control, QueryRequest(q), q);
      r.lines.pop_back();
      traffic.known.push_back(r.lines);
    }
  }

  // ------------------------------------------------------------- window
  std::vector<double> publish_s, append_s, refresh_us;
  double shards_max = static_cast<double>(
      Must(ShardedStore::ReadManifest(root + "/v1"), "manifest")
          .shard_dirs.size());
  double compactions = 0.0;
  uint64_t last_version = 1;
  size_t next_batch = 0;
  // Runs one append to completion and reads the new version back.
  auto append = [&](Child writer, Clock::time_point started) {
    const auto until = started + std::chrono::seconds(120);
    while (!writer.Exited()) {
      if (Clock::now() > until) Die("append did not finish within 120 s");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (writer.exit_code() != 0) {
      Die("entropydb_build --append exited with " +
          std::to_string(writer.exit_code()));
    }
    const auto exited = Clock::now();
    const WireResponse v =
        MustCall(control, Command(CommandType::kVersion), "VERSION");
    const auto replied = Clock::now();
    const uint64_t id = CurrentVersion(v);
    if (id <= last_version) Die("VERSION did not advance after an append");
    last_version = id;
    publish_s.push_back(Seconds(replied - started));
    append_s.push_back(Seconds(exited - started));
    refresh_us.push_back(Seconds(replied - exited) * 1e6);
    shards_max = std::max(
        shards_max,
        static_cast<double>(Must(ShardedStore::ReadManifest(
                                     root + "/v" + std::to_string(id)),
                                 "manifest")
                                .shard_dirs.size()));
    std::ifstream log(writer.log_path());
    for (std::string line; std::getline(log, line);) {
      compactions += line.rfind("compacted ", 0) == 0;
    }
  };
  auto spawn_append = [&]() {
    const std::string& csv = batches[next_batch];
    return Must(Child::Spawn({bin_dir + "/entropydb_build", "--append", csv,
                              "--store", root},
                             csv + ".log"),
                "spawn entropydb_build");
  };

  double threads_peak = 0.0;
  Child writer;
  Clock::time_point writer_began;
  Clock::time_point next_append;
  auto tick = [&]() {
    threads_peak = std::max(threads_peak, StatusField(pid, "Threads"));
    if (!ingest) return;
    if (writer.pid() >= 0 && writer.Exited()) {
      append(std::move(writer), writer_began);
      writer = Child();
    }
    if (writer.pid() < 0 && Clock::now() >= next_append &&
        next_batch < batches.size()) {
      writer_began = Clock::now();
      writer = spawn_append();
      ++next_batch;
      next_append += std::chrono::milliseconds(
          static_cast<int64_t>(kAppendEverySeconds * 1000));
    }
  };

  const std::map<std::string, double> stats0 = Stats(control);
  const auto window_began = Clock::now();
  next_append = window_began + std::chrono::milliseconds(1500);
  std::vector<SpanLog> logs;
  for (size_t c = 0; c < kConnections; ++c) {
    logs.emplace_back("conn" + std::to_string(c));
  }
  const double measured_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  Window w = RunWindow(traffic, server.port, pid, host, measured_s, 0, nullptr,
                       tick);
  Window traced;
  if (opt.trace) {
    traced = RunWindow(traffic, server.port, pid, host, opt.seconds / 2,
                       w.next_index, &logs, tick);
  }
  if (writer.pid() >= 0) append(std::move(writer), writer_began);
  const double window_s = Seconds(Clock::now() - window_began);
  Log("window", began);
  std::fprintf(stderr, "e2e_bench: host factor %.3f over the window\n",
               w.HostFactor());
  const double rss_mb = StatusField(pid, "VmHWM") / 1024.0;
  const std::map<std::string, double> stats1 = Stats(control);
  auto delta = [&](const char* key) {
    const auto a = stats0.find(key);
    const auto b = stats1.find(key);
    return (b == stats1.end() ? 0.0 : b->second) -
           (a == stats0.end() ? 0.0 : a->second);
  };

  std::string mismatch =
      !w.all.mismatch.empty() ? w.all.mismatch : traced.all.mismatch;

  // ----------------------------------------------------------- accuracy
  // Every answer must equal the reference bitwise; then the paper's
  // metrics: symmetric error (rounded COUNTs, as the paper reports them)
  // and light-vs-nonexistent F-measure.
  std::vector<double> errors, light, nonexistent;
  for (size_t i = 0; i < accuracy.size() && mismatch.empty(); ++i) {
    const AccuracyQuery& a = accuracy[i];
    const WireResponse r = MustCall(control, QueryRequest(a.text), a.text);
    if (r.lines.empty() || r.lines[0] != expected[i]) {
      mismatch = "wire answer '" + (r.lines.empty() ? "" : r.lines[0]) +
                 "' != in-process '" + expected[i] + "' for: " + a.text;
      break;
    }
    const double est = std::strtod(r.lines[0].c_str() + 9, nullptr);
    const bool count = a.set != AccuracyQuery::Set::kSum;
    errors.push_back(SymmetricError(a.truth, count ? std::round(est) : est));
    if (a.set == AccuracyQuery::Set::kLight) light.push_back(est);
    if (a.set == AccuracyQuery::Set::kNonexistent) nonexistent.push_back(est);
  }
  const double sym_err = Mean(errors);
  const double f_measure = ComputeFMeasure(light, nonexistent).f;

  Log("accuracy pass", began);

  // ------------------------------------------------------------ metrics
  std::vector<Metric> metrics;
  const std::string slices_note =
      "median of " + std::to_string(w.PhaseSlices()) + " slices";
  auto measured = [](double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "; %.6g as measured", v);
    return std::string(buf);
  };
  std::vector<double> setup_ref;
  for (const SetupTimes& s : setups) setup_ref.push_back(s.total_s / s.host);
  if (!opt.trace) {
    metrics = {
        {"setup_s", Median(setup_ref), "s",
         " (median of " + std::to_string(kSetups) +
             measured(median_of(&SetupTimes::total_s)) + ")"},
        {"lat_p50_us", w.Latency(), "us",
         " (n=" + std::to_string(w.LatencyCount()) + ", " + slices_note +
             measured(w.MeasuredLatency()) + ")"},
        {"qps_sat", w.Qps(), "1/s",
         " (" + slices_note + measured(w.MeasuredQps()) + ")"},
        {"sym_err", sym_err, "ratio",
         " (n=" + std::to_string(errors.size()) + ")"},
        {"f_measure", f_measure, "ratio",
         " (" + std::to_string(light.size()) + " light vs " +
             std::to_string(nonexistent.size()) + " nonexistent)"},
        {"store_bytes_per_row", store_bytes_per_row, "B/row", ""},
        {"server_rss_mb", rss_mb, "MB", " (VmHWM)"},
        {"server_cpu_us_per_q", w.CpuUsPerQuery(), "us",
         " (" + slices_note + measured(w.MeasuredCpuUsPerQuery()) + ")"},
    };
  } else {
    // STATS round trip: socket plus session dispatch, no query work.
    std::vector<double> stats_rtt;
    for (int k = 0; k < 200; ++k) {
      const int64_t a = NowNs();
      MustCall(control, Command(CommandType::kStats), "STATS");
      stats_rtt.push_back((NowNs() - a) / 1e3);
    }
    server.process.Stop(kStopGraceMs);

    // In-process replay of the workload's first requests, then a probe of
    // explore queries and BATCH frames for the layers the workload itself
    // does not reach.
    SpanLog replay_log("replay");
    SpanLog probe_log("probe");
    Replayer replayer(reference);
    Replayer prober(reference);
    if (!traffic.frames.empty()) {
      for (size_t f = 0; f * 64 < kReplayRequests; ++f) {
        Must(replayer.Batch(traffic.frames[f].queries, f, &replay_log),
             "replay");
      }
    } else {
      for (uint64_t i = 0; i < kReplayRequests; ++i) {
        Must(replayer.Query(traffic.Make(i).query, i, &replay_log), "replay");
      }
    }
    uint64_t probe_id = 0;
    for (const std::string& q : streams.Explore(600)) {
      Must(prober.Query(q, probe_id++, &probe_log), "probe");
    }
    for (size_t f = 0; f < 4; ++f) {
      Must(prober.Batch(streams.BatchFrame(f), probe_id++, &probe_log),
           "probe");
    }
    auto layer = [&](const std::string& name, double p) {
      const auto& own = replayer.samples();
      const auto it = own.find(name);
      if (it != own.end() && it->second.size() >= 20) {
        return Percentile(it->second, p);
      }
      const auto probe = prober.samples().find(name);
      return probe == prober.samples().end() ? 0.0
                                             : Percentile(probe->second, p);
    };
    // Shard counters from the workload's own replay when it reached the
    // shards (BATCH frames answer through AnswerAll), else from the probe.
    const Replayer& routed = replayer.routes() > 0 ? replayer : prober;
    const auto fanout = routed.samples().find("shard.fanout");

    std::vector<const SpanLog*> all;
    for (const SpanLog& l : logs) all.push_back(&l);
    all.push_back(&replay_log);
    all.push_back(&probe_log);
    std::vector<double> wait_us;
    for (const SpanLog& l : logs) {
      for (const Span& s : l.spans()) {
        if (std::strcmp(s.name, "client.wait") == 0) {
          wait_us.push_back((s.end_ns - s.start_ns) / 1e3);
        }
      }
    }
    const std::string stem = opt.workload + "-" + std::to_string(opt.seed);
    Must(WriteChromeTrace(opt.workdir + "/trace-" + stem + ".json", all, 20000),
         "write trace");
    Must(WriteLayerTable(opt.workdir + "/layers-" + stem + ".txt",
                         SelfTimes(all)),
         "write layer table");

    const double routes =
        static_cast<double>(std::max<uint64_t>(1, routed.routes()));
    const double shard_slots =
        static_cast<double>(routed.shards_pruned() + routed.shards_scanned());
    // What the in-process replay accounts for: the socket-and-dispatch
    // floor plus one request through codec, parser, cache, batcher and
    // engine as the request itself takes them.
    const double attributed =
        Percentile(stats_rtt, 0.5) + layer("request_us", 0.5);
    const std::vector<double> gap_us(w.all.gap_us.begin(),
                                     w.all.gap_us.end());
    const double hits = delta("cache_hits");
    const double misses = delta("cache_misses");
    const double batches_run = delta("batches");
    // Each query kind's share of the replayed request time: what a gain
    // on one kind is worth to the workload's mix.
    double replayed_us = 0.0;
    std::map<std::string, double> kind_us;
    for (const char* kind : {"count", "sum", "avg", "quantile", "topk"}) {
      const auto it = replayer.samples().find(std::string("request_us.") +
                                              kind);
      if (it == replayer.samples().end()) continue;
      for (double us : it->second) kind_us[kind] += us;
      replayed_us += kind_us[kind];
    }
    auto mix_share = [&](const char* kind) {
      return replayed_us > 0 ? kind_us[kind] / replayed_us : 0.0;
    };
    const std::string ingest_note = ingest ? "" : " (ingest only)";
    metrics = {
        // Too host-sensitive to bound end to end (README, "Baseline").
        {"lat_p99_us", w.PooledLatency(0.99), "us",
         " (n=" + std::to_string(w.LatencyCount()) + ")"},
        {"publish_s", Median(publish_s), "s",
         ingest ? " (median of " + std::to_string(publish_s.size()) + ")"
                : ingest_note},
        {"wire.codec_us", layer("wire.codec_us", 0.5), "us", ""},
        {"wire.stats_rtt_us", Percentile(stats_rtt, 0.5), "us", ""},
        {"client.wait_us", Percentile(wait_us, 0.5), "us", ""},
        {"parser.parse_us", layer("parser.parse_us", 0.5), "us", ""},
        {"cache.probe_us", layer("cache.probe_us", 0.5), "us", ""},
        {"cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
         "ratio", ""},
        {"batcher.hop_us", layer("batcher.hop_us", 0.5), "us", ""},
        {"batcher.batch_size",
         batches_run > 0 ? delta("batched_queries") / batches_run : 0.0,
         "count", ""},
        {"batcher.rejected", delta("rejected"), "count", ""},
        {"batcher.expired", delta("expired"), "count", ""},
        {"engine.answer_us.count", layer("engine.answer_us.count", 0.5), "us",
         ""},
        {"engine.answer_us.sum", layer("engine.answer_us.sum", 0.5), "us", ""},
        {"engine.answer_us.avg", layer("engine.answer_us.avg", 0.5), "us", ""},
        {"engine.answer_us.quantile", layer("engine.answer_us.quantile", 0.5),
         "us", ""},
        {"engine.answer_us.topk", layer("engine.answer_us.topk", 0.5), "us",
         ""},
        {"engine.answer_all_us_per_q",
         layer("engine.answer_all_us_per_q", 0.5), "us", ""},
        {"mix.share.count", mix_share("count"), "ratio", ""},
        {"mix.share.sum", mix_share("sum"), "ratio", ""},
        {"mix.share.avg", mix_share("avg"), "ratio", ""},
        {"mix.share.quantile", mix_share("quantile"), "ratio", ""},
        {"mix.share.topk", mix_share("topk"), "ratio", ""},
        {"shard.fanout",
         fanout == routed.samples().end() ? 0.0 : Mean(fanout->second),
         "count", ""},
        {"shard.pruned_ratio",
         shard_slots > 0 ? routed.shards_pruned() / shard_slots : 0.0,
         "ratio", ""},
        {"shard.answer_us", layer("shard.answer_us", 0.5), "us", ""},
        {"shard.skew", layer("shard.skew", 0.5), "ratio", ""},
        {"shard.merge_us", layer("shard.merge_us", 0.5), "us", ""},
        {"router.route_us", layer("router.route_us", 0.5), "us", ""},
        {"router.sample_share", routed.sample_routes() / routes, "ratio", ""},
        {"maxent.eval_us", layer("maxent.eval_us", 0.5), "us", ""},
        {"sampling.eval_us", layer("sampling.eval_us", 0.5), "us", ""},
        {"solver.iterations", Mean(iterations), "count", ""},
        {"solver.max_err", max_err, "ratio", ""},
        {"build.store_s", median_of(&SetupTimes::build_s), "s", ""},
        {"build.save_s", median_of(&SetupTimes::save_s), "s", ""},
        {"version.publish_s", median_of(&SetupTimes::publish_s), "s", ""},
        {"server.open_s", median_of(&SetupTimes::open_s), "s", ""},
        {"ingest.append_s", Median(append_s), "s", ingest_note},
        {"catalog.refresh_us", Median(refresh_us), "us", ingest_note},
        {"ingest.shards_max", shards_max, "count", ingest_note},
        {"compaction.runs", compactions, "count", ingest_note},
        {"gen.gap_p99_us", Percentile(gap_us, 0.99), "us", ""},
        {"gen.sent", static_cast<double>(w.all.requests), "count", ""},
        {"gen.ok", static_cast<double>(w.all.requests - w.all.failed),
         "count", ""},
        {"gen.failed", static_cast<double>(w.all.failed), "count", ""},
        {"fail_frac",
         static_cast<double>(w.failed()) / std::max<uint64_t>(1, w.attempted()),
         "ratio", ""},
        {"server.threads", threads_peak, "count", ""},
        {"unattributed_us", w.MeasuredLatency() - attributed, "us", ""},
        {"trace.overhead_us", traced.MeasuredLatency() - w.MeasuredLatency(),
         "us", ""},
        {"host.factor", w.HostFactor(), "ratio", ""},
    };
  }
  server.process.Stop(kStopGraceMs);
  fs::remove_all(run_dir);

  std::map<std::string, uint64_t> error_codes = w.all.errors;
  for (const auto& [code, n] : traced.all.errors) error_codes[code] += n;
  for (const auto& [code, n] : error_codes) {
    std::fprintf(stderr, "e2e_bench: %llu request(s) failed with %s\n",
                 static_cast<unsigned long long>(n), code.c_str());
  }
  const bool correct = mismatch.empty();
  if (!correct) {
    std::fprintf(stderr, "e2e_bench: MISMATCH: %s\n", mismatch.c_str());
  }

  std::string metrics_json;
  for (const Metric& m : metrics) {
    std::printf("%s %s %.6g %s%s\n", opt.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str(), m.note.c_str());
    metrics_json += (metrics_json.empty() ? "" : ", ") + JsonString(m.name) +
                    ": {\"value\": " + JsonNumber(m.value) +
                    ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const uint64_t attempted = w.attempted() + traced.attempted();
  const uint64_t failed = w.failed() + traced.failed();
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, attempted)) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
      metrics_json + "}}";
  if (!opt.out.empty()) {
    std::string codes;
    for (const auto& [code, n] : error_codes) {
      codes += (codes.empty() ? "" : ", ") + JsonString(code) + ": " +
               std::to_string(n);
    }
    auto list = [](const std::vector<double>& v) {
      std::string out;
      for (double x : v) out += (out.empty() ? "" : ", ") + JsonNumber(x);
      return "[" + out + "]";
    };
    std::vector<double> setup_s, setup_host;
    for (const SetupTimes& t : setups) {
      setup_s.push_back(t.total_s);
      setup_host.push_back(t.host);
    }
    std::ofstream out(opt.out);
    out << "{\"workload\": " << JsonString(opt.workload)
        << ", \"seed\": " << opt.seed
        << ", \"seconds\": " << JsonNumber(opt.seconds)
        << ", \"trace\": " << (opt.trace ? 1 : 0)
        << ", \"stream_fingerprint\": \"" << std::hex << streams.Fingerprint()
        << std::dec << "\", \"errors\": {" << codes << "}, \"window_s\": "
        << JsonNumber(window_s) << ", \"setup_s\": " << list(setup_s)
        << ", \"setup_host\": " << list(setup_host)
        << ", \"publish_s\": " << list(publish_s)
        << ", \"lat_p99_us\": " << JsonNumber(w.PooledLatency(0.99))
        << ", \"slices\": {"
        << "\"lat_p50_us\": "
        << list(w.Over(0, [&](size_t k) { return w.SliceLatency(k); }))
        << ", \"qps\": "
        << list(w.Over(1, [&](size_t k) { return w.SliceQps(k); }))
        << ", \"cpu_us_per_q\": "
        << list(w.Over(1, [&](size_t k) { return w.SliceCpuUs(k); }))
        << ", \"host\": " << list(w.host) << "}"
        << ", \"result\": " << result << "}\n";
    if (!out.good()) Die("cannot write " + opt.out);
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Run(e2e::ParseArgs(argc, argv)); }
