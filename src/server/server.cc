#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "query/parser.h"
#include "storage/version_set.h"

namespace entropydb {

namespace {

Status SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// "estimate <expectation> <variance>" with round-trippable doubles, so a
/// pinned reader's responses can be compared bitwise across publishes.
std::string EstimateLine(const QueryEstimate& est) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "estimate %.17g %.17g", est.expectation,
                est.variance);
  return buf;
}

/// Result lines for any aggregate kind, rendered purely from the
/// QueryResult — the cache stores QueryResults, so a hit re-renders the
/// exact bytes the original answer produced:
///
///     estimate <expectation> <variance>
///     [bound <lo> <hi>]                  (QUANTILE's value-space bound)
///     [cell <code> <expectation> <variance>]...   (TOPK, largest first)
std::vector<std::string> ResultLines(const QueryResult& result) {
  std::vector<std::string> lines;
  lines.push_back(EstimateLine(result.estimate));
  if (result.has_bound) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "bound %.17g %.17g", result.bound_lo,
                  result.bound_hi);
    lines.push_back(buf);
  }
  for (const GroupCell& cell : result.cells) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "cell %llu %.17g %.17g",
                  static_cast<unsigned long long>(cell.code),
                  cell.estimate.expectation, cell.estimate.variance);
    lines.push_back(buf);
  }
  return lines;
}

/// Wraps a BATCH slot's estimate the way Answer(AggregateQuery::Count)
/// does, so QUERY and BATCH populate the cache with identical values.
QueryResult CountResult(const QueryEstimate& est) {
  QueryResult out;
  out.estimate = est;
  out.count = est;
  out.has_moments = true;
  return out;
}

/// Deadlines are capped here (at ~35 years), so that a huge wire value
/// cannot overflow steady_clock arithmetic.
constexpr uint64_t kMaxDeadlineMs = uint64_t{1} << 40;

/// When the request's answer is due: its own deadline, or `default_ms`
/// when it carries none, from now.
std::chrono::steady_clock::time_point RequestDeadline(const Request& req,
                                                      uint64_t default_ms) {
  const uint64_t ms = req.deadline_ms > 0 ? req.deadline_ms : default_ms;
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(std::min(ms, kMaxDeadlineMs));
}

/// The QUERY/JOIN response for `result`, ending in the `cached` flag.
std::string QueryResponse(const QueryResult& result, bool cached) {
  std::vector<std::string> lines = ResultLines(result);
  lines.push_back(cached ? "cached 1" : "cached 0");
  return EncodeOkResponse(lines);
}

std::string JoinIds(const std::vector<uint64_t>& ids) {
  std::string out;
  for (uint64_t id : ids) {
    if (!out.empty()) out += " ";
    out += std::to_string(id);
  }
  return out;
}

}  // namespace

Result<std::unique_ptr<QueryServer>> QueryServer::Start(
    const Options& options, Env* env) {
  std::unique_ptr<QueryServer> server(new QueryServer(options, env));

  if (VersionSet::IsVersionedRoot(options.path, env)) {
    ASSIGN_OR_RETURN(
        server->catalog_,
        VersionCatalog::Open(options.path, options.summary, env));
  } else {
    ASSIGN_OR_RETURN(server->static_engine_,
                     EntropyEngine::Open(options.path, options.summary, env));
  }
  if (!options.join_path.empty()) {
    ASSIGN_OR_RETURN(
        server->join_engine_,
        EntropyEngine::Open(options.join_path, options.summary, env));
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options.port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("bind port " + std::to_string(options.port) +
                           ": " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  server->listen_fd_ = fd;
  server->port_ = ntohs(bound.sin_port);
  server->accept_thread_ = std::thread([s = server.get()] { s->AcceptLoop(); });
  return server;
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Stop() {
  if (stopping_.exchange(true)) return;
  // shutdown() wakes the blocked accept(); the descriptor is closed only
  // once the accept thread is gone, so that thread never reads a closed
  // (or reused) fd.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // The accept thread is gone, so no session starts or is reaped now.
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (SessionSlot& slot : sessions_) {
      if (slot.fd >= 0) ::shutdown(slot.fd, SHUT_RDWR);
      threads.push_back(std::move(slot.thread));
    }
  }
  for (std::thread& t : threads) t.join();
}

Result<bool> QueryServer::RefreshVersions() {
  if (catalog_ == nullptr) return false;
  return catalog_->Refresh();
}

QueryServer::Stats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void QueryServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by Stop()
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections;
    }
    // Join the sessions that have ended, so the server holds a thread (and
    // its stack) per open connection, not per connection it ever accepted.
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (auto it = sessions_.begin(); it != sessions_.end();) {
        if (it->fd >= 0) {
          ++it;
          continue;
        }
        finished.push_back(std::move(it->thread));
        it = sessions_.erase(it);
      }
      SessionSlot& slot = sessions_.emplace_back();
      slot.fd = fd;
      slot.thread = std::thread([this, &slot] { SessionLoop(&slot); });
    }
    for (std::thread& t : finished) t.join();
  }
}

void QueryServer::SessionLoop(SessionSlot* slot) {
  const int fd = slot->fd;
  Session session;
  FrameDecoder decoder;
  char buf[1 << 14];
  for (;;) {
    auto frame = decoder.Next();
    if (!frame.ok()) {
      // Desynchronized stream: report once, then close — the length
      // prefix cannot be trusted again.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      SendAll(fd, EncodeFrame(EncodeErrorResponse(frame.status()))).ok();
      break;
    }
    if (frame->has_value()) {
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.requests;
      }
      std::string response;
      auto request = ParseRequest(**frame);
      if (!request.ok()) {
        response = EncodeErrorResponse(request.status());
      } else {
        auto handled = HandleRequest(&session, *request);
        response = handled.ok() ? *handled
                                : EncodeErrorResponse(handled.status());
      }
      if (!SendAll(fd, EncodeFrame(response)).ok()) break;
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // client closed, or Stop() shut the socket down
    decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
  }
  // Give up the slot's descriptor before the number is released: Stop()
  // must never shut down a descriptor the process has since reused.
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    slot->fd = -1;
  }
  ::close(fd);
}

Result<std::string> QueryServer::HandleRequest(Session* session,
                                               const Request& req) {
  switch (req.type) {
    case CommandType::kQuery:
      return HandleQuery(session, req);
    case CommandType::kJoin:
      return HandleJoin(session, req);
    case CommandType::kBatch:
      return HandleBatch(session, req);
    case CommandType::kOpen:
      return HandleOpen(session, req);
    case CommandType::kStats:
      return HandleStats(session);
    case CommandType::kVersion:
      return HandleVersion();
  }
  return Status::Internal("unhandled command");
}

Result<std::pair<std::shared_ptr<EntropyEngine>, uint64_t>>
QueryServer::ResolveEngine(Session* session) {
  if (session->pinned != nullptr) {
    return std::make_pair(session->pinned, session->pinned_version);
  }
  if (catalog_ == nullptr) {
    return std::make_pair(static_engine_, uint64_t{0});
  }
  const uint64_t id = catalog_->current();
  ASSIGN_OR_RETURN(std::shared_ptr<EntropyEngine> engine, catalog_->Pin(id));
  return std::make_pair(std::move(engine), id);
}

Result<std::string> QueryServer::AnswerCached(
    const Request& req, uint64_t version, const std::string& key,
    const std::function<Result<QueryResult>()>& answer) {
  if (auto cached = cache_.Get(version, key); cached.has_value()) {
    return QueryResponse(*cached, true);
  }
  const auto deadline = RequestDeadline(req, options_.default_deadline_ms);
  ASSIGN_OR_RETURN(QueryResult result, gate_.Run(1, deadline, answer));
  cache_.Put(version, key, result);
  return QueryResponse(result, false);
}

Result<std::string> QueryServer::HandleQuery(Session* session,
                                             const Request& req) {
  ASSIGN_OR_RETURN(auto resolved, ResolveEngine(session));
  const std::shared_ptr<EntropyEngine>& engine = resolved.first;
  ASSIGN_OR_RETURN(
      ParsedQuery parsed,
      ParseQuery(req.query, engine->attr_names(), engine->domains()));
  return AnswerCached(req, resolved.second, CanonicalQueryKey(parsed), [&] {
    return engine->Answer(ToAggregateQuery(parsed, engine->domains()));
  });
}

Result<std::string> QueryServer::HandleJoin(Session* session,
                                            const Request& req) {
  if (join_engine_ == nullptr) {
    return Status::FailedPrecondition(
        "server has no join relation (start with --join <path>)");
  }
  ASSIGN_OR_RETURN(auto resolved, ResolveEngine(session));
  const std::shared_ptr<EntropyEngine>& engine = resolved.first;
  ASSIGN_OR_RETURN(
      ParsedJoinQuery parsed,
      ParseJoinQuery(req.query, engine->attr_names(), engine->domains(),
                     join_engine_->attr_names(), join_engine_->domains()));
  // The right-side engine is loaded once at startup and immutable, so the
  // left version alone still keys the cache correctly.
  const std::string key = CanonicalJoinQueryKey(parsed);
  return AnswerCached(req, resolved.second, key, [&] {
    const AggregateQuery query = ToAggregateQuery(parsed, engine->domains());
    return engine->AnswerJoin(query, *join_engine_);
  });
}

Result<std::string> QueryServer::HandleBatch(Session* session,
                                             const Request& req) {
  ASSIGN_OR_RETURN(auto resolved, ResolveEngine(session));
  const std::shared_ptr<EntropyEngine>& engine = resolved.first;
  const uint64_t version = resolved.second;

  // Parse everything before answering anything: a malformed query fails
  // the whole batch without burning answer work.
  std::vector<std::string> keys(req.queries.size());
  std::vector<std::optional<QueryResult>> cached(req.queries.size());
  std::vector<CountingQuery> misses;
  for (size_t i = 0; i < req.queries.size(); ++i) {
    ASSIGN_OR_RETURN(
        ParsedQuery parsed,
        ParseQuery(req.queries[i], engine->attr_names(), engine->domains()));
    if (parsed.aggregate != ParsedQuery::Aggregate::kCount) {
      return Status::InvalidArgument(
          "BATCH queries must be COUNT (the batched answering path)");
    }
    keys[i] = CanonicalQueryKey(parsed);
    cached[i] = cache_.Get(version, keys[i]);
    if (!cached[i].has_value()) misses.push_back(std::move(parsed.where));
  }
  // The misses pass the gate together and are answered by one AnswerAll
  // on this thread, which spreads them over the thread pool.
  std::vector<QueryEstimate> answers;
  if (!misses.empty()) {
    const auto deadline = RequestDeadline(req, options_.default_deadline_ms);
    const auto answer_all = [&] { return engine->AnswerAll(misses); };
    ASSIGN_OR_RETURN(answers, gate_.Run(misses.size(), deadline, answer_all));
  }
  std::vector<std::string> lines;
  lines.reserve(keys.size());
  size_t next = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (cached[i].has_value()) {
      lines.push_back(EstimateLine(cached[i]->estimate));
      continue;
    }
    const QueryEstimate& est = answers[next++];
    cache_.Put(version, keys[i], CountResult(est));
    lines.push_back(EstimateLine(est));
  }
  return EncodeOkResponse(lines);
}

Result<std::string> QueryServer::HandleOpen(Session* session,
                                            const Request& req) {
  if (catalog_ == nullptr) {
    if (req.version != 0) {
      return Status::FailedPrecondition("served store is not versioned");
    }
    session->pinned = nullptr;
    session->pinned_version = 0;
    return EncodeOkResponse({"version 0"});
  }
  RETURN_NOT_OK(catalog_->Refresh().status());
  if (req.version == 0) {
    session->pinned = nullptr;
    session->pinned_version = 0;
    return EncodeOkResponse(
        {"version " + std::to_string(catalog_->current())});
  }
  ASSIGN_OR_RETURN(session->pinned, catalog_->Pin(req.version));
  session->pinned_version = req.version;
  return EncodeOkResponse({"version " + std::to_string(req.version)});
}

Result<std::string> QueryServer::HandleStats(Session* session) {
  ASSIGN_OR_RETURN(auto resolved, ResolveEngine(session));
  const EngineStats engine = resolved.first->stats();
  const ResultCache::Stats cache = cache_.stats();
  const QueryBatcher::Stats gate = gate_.stats();
  const Stats server = stats();
  std::vector<std::string> lines;
  lines.push_back("version " +
                  std::to_string(catalog_ ? catalog_->current() : 0));
  lines.push_back(
      "retained " +
      JoinIds(catalog_ ? catalog_->versions() : std::vector<uint64_t>{}));
  lines.push_back("n " + std::to_string(resolved.first->n()));
  lines.push_back("queries " + std::to_string(engine.queries));
  lines.push_back("batches " + std::to_string(engine.batches));
  lines.push_back("batched_queries " +
                  std::to_string(engine.batched_queries));
  lines.push_back("cache_hits " + std::to_string(cache.hits));
  lines.push_back("cache_misses " + std::to_string(cache.misses));
  lines.push_back("cache_entries " + std::to_string(cache.entries));
  lines.push_back("admitted " + std::to_string(gate.accepted));
  lines.push_back("rejected " + std::to_string(gate.rejected));
  lines.push_back("expired " + std::to_string(gate.expired));
  lines.push_back("connections " + std::to_string(server.connections));
  lines.push_back("requests " + std::to_string(server.requests));
  return EncodeOkResponse(lines);
}

Result<std::string> QueryServer::HandleVersion() {
  // The capability list lets a client feature-detect the aggregate surface
  // instead of probing with throwaway queries; "join" appears only when a
  // right-side relation is configured.
  std::string capabilities = "capabilities count sum avg quantile topk batch";
  if (join_engine_ != nullptr) capabilities += " join";
  if (catalog_ == nullptr) {
    return EncodeOkResponse({"current 0", "retained ", capabilities});
  }
  RETURN_NOT_OK(catalog_->Refresh().status());
  return EncodeOkResponse(
      {"current " + std::to_string(catalog_->current()),
       "retained " + JoinIds(catalog_->versions()), capabilities});
}

}  // namespace entropydb
