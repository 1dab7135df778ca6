#ifndef ENTROPYDB_SERVER_VERSION_CATALOG_H_
#define ENTROPYDB_SERVER_VERSION_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "storage/version_set.h"

namespace entropydb {

/// \brief Open engines for a versioned root: the live one, and one per
/// retained version a session pinned.
///
/// The serving-side half of the version lifecycle: the VersionSet tracks
/// what is on disk, the catalog tracks what is in memory. The catalog
/// keeps one live (id, engine) pair, which every unpinned query reads
/// with Live() under one short lock. Refresh() re-reads CURRENT and,
/// when it names another version, opens that version without holding
/// the lock Live() takes, then swaps the pair. Readers keep answering
/// from the previous engine until the swap, and a version that fails to
/// open never goes live. Every open shares the live engine's unchanged
/// shards (ShardedStore::Load), so a publish that appended one shard
/// loads one shard.
///
/// Pin(id) hands out a shared engine for a retained version; sessions
/// hold the shared_ptr, so an engine stays answerable — bitwise-stable,
/// its files being immutable — even after its version retires from
/// disk, for as long as any session keeps it pinned. Refresh() also
/// drops cached engines for versions the retention GC removed (sessions'
/// own pins are unaffected; the catalog just stops handing them to NEW
/// sessions).
///
/// Thread-safe; one instance per served root. Opens run one at a time.
class VersionCatalog {
 public:
  /// A version id and its open engine.
  struct Snapshot {
    uint64_t id = 0;
    std::shared_ptr<EntropyEngine> engine;
  };

  /// Opens the versioned root (failing on a root with no published
  /// version) and opens the current version, so the server's first
  /// query pays no load.
  static Result<std::unique_ptr<VersionCatalog>> Open(
      const std::string& root, SummaryOptions opts, Env* env);

  /// The live version and its engine. Takes one short lock and never
  /// waits for an open or reads a file.
  Snapshot Live() const;

  /// The engine for retained version `id`, opened once (sharing the live
  /// engine's unchanged shards); kNotFound when `id` is neither live,
  /// retained on disk, nor already pinned in memory.
  Result<std::shared_ptr<EntropyEngine>> Pin(uint64_t id);

  /// Re-reads CURRENT and, when it names a version other than the live
  /// one, opens that version and makes it live; returns whether the live
  /// version changed. An open that fails returns its error and leaves
  /// the live engine in place; the next Refresh() tries again. Evicts
  /// cached engines for versions no longer retained.
  Result<bool> Refresh();

  /// The live version id; it advances when Refresh() swaps.
  uint64_t current() const;
  std::vector<uint64_t> versions() const;

 private:
  VersionCatalog(std::unique_ptr<VersionSet> versions, SummaryOptions opts,
                 Env* env)
      : version_set_(std::move(versions)), opts_(opts), env_(env) {}

  /// Opens version `id`, reusing `live`'s unchanged shards (none when
  /// nothing is live yet). Caller holds open_mu_, not mu_.
  Result<std::shared_ptr<EntropyEngine>> OpenVersion(uint64_t id,
                                                     const Snapshot& live);

  const std::unique_ptr<VersionSet> version_set_;
  const SummaryOptions opts_;
  Env* const env_;

  /// Held across every open, so one refresh or pin opens at a time.
  std::mutex open_mu_;

  /// Guards live_ and engines_; never held across an open.
  mutable std::mutex mu_;
  Snapshot live_;
  /// Engines opened for retained versions, the live one included.
  std::map<uint64_t, std::shared_ptr<EntropyEngine>> engines_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_SERVER_VERSION_CATALOG_H_
