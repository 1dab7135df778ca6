#ifndef ENTROPYDB_SERVER_SERVER_H_
#define ENTROPYDB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/env.h"
#include "common/result.h"
#include "engine/engine.h"
#include "server/batcher.h"
#include "server/result_cache.h"
#include "server/version_catalog.h"
#include "server/wire_protocol.h"

namespace entropydb {

/// \brief The entropydb_serve query server: a TCP front-end over versioned
/// EntropyEngines.
///
/// One server process serves one store path. A *versioned root*
/// (storage/version_set.h) serves its CURRENT version live, lets sessions
/// OPEN any retained version for snapshot-pinned reads (time travel), and
/// picks up externally published versions on OPEN/VERSION commands. The
/// next version opens beside the live one, sharing its unchanged shards,
/// and goes live only once it opened (server/version_catalog.h), so
/// unpinned readers never wait for a publish, and a session pinned on
/// v(n) keeps answering from v(n)'s immutable files while v(n+1) goes
/// live. A plain store directory or summary file is served too, just
/// without version commands.
///
/// Request flow per session (one thread per open connection; sessions are
/// independent, and the accept loop joins the ones that ended): frame
/// decode -> ParseRequest -> result cache probe (keyed on (version,
/// canonical query) — immutable versions make hits trivially correct) ->
/// admission gate -> answer on the session thread -> framed response
/// rendered from the QueryResult (so a cache hit is byte-identical to the
/// miss that populated it). Every miss passes the one admission gate
/// (server/batcher.h), which bounds the queries in flight and enforces
/// the request's deadline: a QUERY of any kind answers with one
/// Answer(AggregateQuery), a JOIN with one AnswerJoin, and a BATCH
/// frame's misses together with one AnswerAll over the thread pool, the
/// multi-core path. Overload returns typed SERVER_BUSY/DEADLINE_EXCEEDED
/// errors instead of queuing without bound.
///
/// When Options::join_path names a second store, the JOIN command fuses
/// the served (LEFT) engine with that static right-side engine
/// (EntropyEngine::AnswerJoin); VERSION advertises the "join" capability
/// only then, and JOIN without it is FAILED_PRECONDITION.
///
/// The wire protocol is specified in docs/SERVING.md and implemented in
/// server/wire_protocol.h; entropydb_client and WireClient speak it.
class QueryServer {
 public:
  struct Options {
    /// Versioned root, plain store directory, or summary file to serve.
    std::string path;
    /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
    uint16_t port = 0;
    /// Admission bound on queries in flight, of every kind
    /// (QueryBatcher::Options::queue_capacity).
    size_t queue_capacity = 256;
    /// Result cache entries (0 disables caching).
    size_t cache_capacity = 4096;
    /// Deadline for requests that do not carry their own, in ms.
    uint64_t default_deadline_ms = 30000;
    /// Store/summary load knobs (checksum verification etc.).
    SummaryOptions summary;
    /// Right-side relation for JOIN queries (store directory or summary
    /// file, loaded once at startup); empty disables the JOIN command.
    std::string join_path;
  };

  /// Server-level monotonic counters (the STATS command also merges
  /// engine, admission, and cache counters).
  struct Stats {
    uint64_t connections = 0;
    uint64_t requests = 0;
    uint64_t protocol_errors = 0;
  };

  /// Opens the store, binds 127.0.0.1:port, and starts accepting.
  static Result<std::unique_ptr<QueryServer>> Start(const Options& options,
                                                    Env* env = Env::Default());

  ~QueryServer();

  /// The bound port (the ephemeral one when Options::port was 0).
  uint16_t port() const { return port_; }

  /// Stops accepting, closes every session, and joins all threads (a
  /// session finishes the answer it is computing first). Idempotent; the
  /// destructor calls it.
  void Stop();

  /// Re-reads the root's CURRENT pointer (no-op for unversioned paths).
  /// Sessions trigger the same refresh with OPEN/VERSION commands; this
  /// entry point is for an embedding process that just published.
  Result<bool> RefreshVersions();

  Stats stats() const;

 private:
  explicit QueryServer(const Options& options, Env* env)
      : options_(options),
        env_(env),
        gate_(QueryBatcher::Options{options.queue_capacity}),
        cache_(options.cache_capacity) {}

  /// Per-session pin state.
  struct Session {
    /// Version pinned by OPEN <id>; a null engine follows live.
    VersionCatalog::Snapshot pinned;
  };

  /// One accepted connection. Its session sets `fd` to -1 under
  /// sessions_mu_ just before closing the socket, which also marks the
  /// thread finished: the accept loop joins finished threads as new
  /// connections arrive, and Stop() joins the rest.
  struct SessionSlot {
    int fd = -1;
    std::thread thread;
  };

  void AcceptLoop();
  void SessionLoop(SessionSlot* slot);
  /// Maps a request to a full response payload; an error Status becomes
  /// an ERR response in the caller.
  Result<std::string> HandleRequest(Session* session, const Request& req);
  /// The engine a session's queries answer against, plus its version id
  /// (0 when unversioned): the session's pin, else the catalog's live
  /// pair under one short lock. Never opens or reads a file.
  VersionCatalog::Snapshot ResolveEngine(const Session& session) const;
  /// The QUERY/JOIN response for the query cached under (version, key):
  /// the cached result, or `answer()` through the admission gate and
  /// cached when it succeeds.
  Result<std::string> AnswerCached(
      const Request& req, uint64_t version, const std::string& key,
      const std::function<Result<QueryResult>()>& answer);
  Result<std::string> HandleQuery(Session* session, const Request& req);
  Result<std::string> HandleJoin(Session* session, const Request& req);
  Result<std::string> HandleBatch(Session* session, const Request& req);
  Result<std::string> HandleOpen(Session* session, const Request& req);
  Result<std::string> HandleStats(Session* session);
  Result<std::string> HandleVersion();

  const Options options_;
  Env* const env_;

  /// Exactly one of catalog_ (versioned root) / static_engine_ is set.
  std::unique_ptr<VersionCatalog> catalog_;
  std::shared_ptr<EntropyEngine> static_engine_;
  /// Right-side JOIN relation; null unless Options::join_path was set.
  std::shared_ptr<EntropyEngine> join_engine_;

  QueryBatcher gate_;
  ResultCache cache_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex sessions_mu_;
  /// Every session not yet joined. List nodes never move, so a session
  /// keeps a pointer to its own slot.
  std::list<SessionSlot> sessions_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_SERVER_SERVER_H_
