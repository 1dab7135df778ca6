#ifndef ENTROPYDB_COMMON_ENV_H_
#define ENTROPYDB_COMMON_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace entropydb {

/// \brief An open file being written through an Env.
///
/// Durability contract: Append buffers arbitrarily; bytes are guaranteed on
/// stable storage only after a successful Sync. Close flushes to the OS but
/// does NOT sync — a crash after Close but before Sync may lose the tail.
/// Persistence code that publishes atomically (store Save, the ingest WAL)
/// must Sync before the publishing rename; FaultInjectionEnv exists to
/// prove that it does.
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Flushes library + OS buffers to stable storage (fsync).
  virtual Status Sync() = 0;
  /// Flushes and closes. Returns the first error seen, including delayed
  /// write errors the OS reports at close — a full disk must not look like
  /// a successful save.
  virtual Status Close() = 0;
};

/// \brief Thin filesystem interface every persistence path goes through.
///
/// Mirrors the (much larger) RocksDB Env idea, restricted to what
/// EntropyDB's persistence needs: whole-file reads, append-style writes,
/// renames, syncs, and directory listing. Production code uses
/// Env::Default() (PosixEnv below); crash and corruption tests substitute
/// FaultInjectionEnv (common/fault_injection_env.h) to fail the Nth write,
/// tear a write in half, or drop un-synced data at a simulated crash
/// point. Methods return Status — callers are expected to propagate, never
/// to assume a write "just worked".
class Env {
 public:
  virtual ~Env() = default;

  /// Opens `path` for writing. `truncate` replaces any existing contents;
  /// truncate = false appends (the WAL's mode).
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate = true) = 0;

  /// Reads the entire file into `*out`.
  virtual Status ReadFile(const std::string& path, std::string* out) = 0;

  /// POSIX rename: atomic, replaces an existing FILE at `to`.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Atomically publishes directory `tmp` at `dest`: when `dest` does not
  /// exist this is a plain rename; when it does, the two directories are
  /// swapped (renameat2 RENAME_EXCHANGE) and the old contents removed, so
  /// a reader never observes a partially-written `dest`. The parent
  /// directory is synced afterwards to make the publication durable.
  virtual Status PublishDir(const std::string& tmp,
                            const std::string& dest) = 0;

  /// fsyncs a directory so its entries (creations, renames) are durable.
  virtual Status SyncDir(const std::string& path) = 0;

  virtual Status CreateDirs(const std::string& path) = 0;
  /// Names (not paths) of the entries of `dir`, sorted.
  virtual Result<std::vector<std::string>> List(const std::string& dir) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Recursive removal; missing paths are OK (idempotent cleanup).
  virtual Status RemoveAll(const std::string& path) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  /// Truncates an existing file to `size` bytes (fault injection uses
  /// this to drop un-synced tails; PosixEnv implements it for symmetry).
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  /// Makes `to` refer to the same bytes as `from` without copying when the
  /// filesystem allows it (hard link); the default implementation copies
  /// through ReadFile/WriteFile, which is also the PosixEnv fallback for
  /// cross-device links. Version cloning (storage/version_set.h) uses this
  /// to derive a new store version from the previous one at O(files) cost
  /// instead of O(bytes). Callers must treat the linked file as immutable:
  /// appending through one name would mutate the other. Test Envs that
  /// inherit the default get fault-injected copies for free.
  virtual Status LinkFile(const std::string& from, const std::string& to);

  /// Convenience: create/truncate `path`, write `data`, optionally Sync,
  /// then Close, propagating the first error.
  Status WriteFile(const std::string& path, std::string_view data,
                   bool sync = true);

  /// The process-wide PosixEnv singleton.
  static Env* Default();
};

// ---------------------------------------------------------------------
// Checksummed text artifacts.
//
// Every EntropyDB text artifact (summary .edb, sample .eds, store
// MANIFEST, versioned-root CURRENT) is persisted with a CRC32C footer line
// "crc32c <8 hex>\n" computed over every preceding byte. Readers verify
// the footer before parsing and return kCorruption on mismatch — a
// bit-flip is rejected, not loaded as silently-wrong estimates.

/// Appends the CRC32C footer to `payload` and writes it through `env`.
Status WriteChecksummedFile(Env* env, const std::string& path,
                            std::string payload, bool sync = true);

/// Reads `path`, verifies and strips the CRC32C footer, and returns the
/// payload. A missing or mismatching footer is kCorruption: every artifact
/// carries one, so a file without it was truncated or never ours.
/// `verify` = false skips the CRC computation (bench_durability's
/// checksums-off mode) but still requires and strips the footer.
/// `footer_crc` (optional) receives the CRC32C the footer records —
/// checked against the payload when `verify` is on.
Result<std::string> ReadChecksummedFile(Env* env, const std::string& path,
                                        bool verify = true,
                                        uint32_t* footer_crc = nullptr);

// ---------------------------------------------------------------------
// Atomic directory publication.
//
// Store saves stage everything into "<dir>.tmp-<pid>-<seq>", sync each
// file and the staged directory, then Env::PublishDir the stage at `dir`
// in one step — a crash at any point leaves either the old version or the
// new one, never a mix. A crash between staging and publication strands a
// tmp directory; loads garbage-collect those.

/// A fresh staging name next to `dir` ("<dir>.tmp-<pid>-<seq>"); the pid +
/// process-local sequence keep concurrent savers from colliding.
std::string StagingDirFor(const std::string& dir);

/// The ONE staleness rule every directory garbage collector applies
/// (ShardedStore::Load's unreferenced-shard sweep, VersionSet's
/// retired-version and stranded-publish sweep, the `.tmp-` staging GC):
/// an entry of `dir` is stale — and removed — exactly when its name
/// starts with one of `prefixes` and is NOT listed in `keep`. Removal is
/// best-effort and recursive; a sweep must never fail the open or publish
/// that runs it, so errors are swallowed. Returns the number of entries
/// removed. Factoring the rule here keeps the shard GC and the version GC
/// from drifting apart (they once each had their own loop).
size_t SweepStaleEntries(Env* env, const std::string& dir,
                         const std::vector<std::string>& prefixes,
                         const std::vector<std::string>& keep);

/// Best-effort removal of stranded "<base>.tmp-*" / "<base>.old-*"
/// siblings of `dir` left behind by a crashed save. Errors are swallowed
/// (GC must never fail an open); call on every store load. Implemented as
/// a SweepStaleEntries over `dir`'s parent.
void RemoveStaleStagingDirs(Env* env, const std::string& dir);

}  // namespace entropydb

#endif  // ENTROPYDB_COMMON_ENV_H_
