#ifndef ENTROPYDB_ENGINE_INGEST_H_
#define ENTROPYDB_ENGINE_INGEST_H_

#include <cstdint>
#include <string>

#include "common/env.h"
#include "common/result.h"
#include "engine/source_store.h"

namespace entropydb {

/// Name of the ingest journal inside a sharded store directory.
inline constexpr char kIngestWalName[] = "ingest.wal";

/// What one ingest call did, for tool output and tests.
struct IngestReport {
  /// Records appended to the journal by this call (0 or 1).
  uint64_t journaled = 0;
  /// Batches sealed into shards by this call, including replayed ones.
  uint64_t sealed = 0;
  /// Of `sealed`, how many were pending from a previous (crashed) call.
  uint64_t recovered = 0;
};

/// \brief WAL-backed ingest: append row batches to a sharded store without
/// rebuilding it.
///
/// The protocol (engine/sharded_store.h holds the manifest format,
/// storage/wal.h the record framing):
///
///   1. The raw CSV batch is appended to `<dir>/ingest.wal` and fsynced —
///      from here the rows survive any crash.
///   2. The batch is sealed: its rows are encoded against the store's
///      persisted domains, a fresh shard (a full SourceStore, modeling the
///      SAME attribute pairs as shard 0 so routing metadata stays uniform)
///      is built and atomically published at `<dir>/shard_b<i>`, and one
///      atomic manifest rewrite appends the shard AND advances the
///      `wal_sealed` cursor together.
///
/// A crash anywhere in step 2 is repaired by replay: every call first
/// seals journal records `[wal_sealed, end)`, rebuilding shards under
/// their deterministic batch-indexed names (idempotent — a half-published
/// orphan shard is simply overwritten). A torn journal tail (partial last
/// record from a crashed append) is truncated before new records are
/// written behind it; fully-synced records are never lost. The journal
/// itself is append-only and never compacted (see ROADMAP.md).
///
/// Constraints: the store must be sharded and carry persisted
/// domains; batch rows must encode within them — ingest never widens a
/// domain, and a row with an unknown label fails the seal with the batch
/// kept pending in the journal.

/// Appends one CSV batch (header row + data rows, matching the store
/// schema) to the store's journal, then seals it and any pending
/// predecessors. `opts` carries the per-batch shard build knobs (budget,
/// solver, sample companions); the modeled pairs are always taken from
/// shard 0, and `opts.summary.verify_checksums` governs manifest/shard
/// reads.
Result<IngestReport> AppendBatch(const std::string& store_dir,
                                 const std::string& csv_text,
                                 StoreOptions opts = {},
                                 Env* env = Env::Default());

/// Seals any journal records a previous call left pending, without
/// appending. A no-op (report of zeros) when the journal is fully sealed.
Result<IngestReport> RecoverPending(const std::string& store_dir,
                                    StoreOptions opts = {},
                                    Env* env = Env::Default());

/// Parses one journaled CSV batch (header + rows) against `donor`'s
/// schema and pinned domains (storage/csv.h's ParseCsv) — the encode
/// every append validation, seal and replay performs; a batch with no
/// rows is kInvalidArgument. Shared with compaction
/// (engine/compaction.h), which re-parses the sealed records to recover
/// batch-lineage rows, and exposed so tests can reconstruct a
/// compaction's input exactly.
/// `batch_index` only labels error messages.
Result<std::shared_ptr<Table>> ParseIngestBatch(const SourceStore& donor,
                                                const std::string& text,
                                                uint64_t batch_index);

/// The modeled pairs of `donor`, flattened in entry order — what every
/// ingest-sealed and compaction-built shard forces into its own build so
/// routing metadata stays uniform across shards (the ShardedStore::Build
/// rule, applied incrementally).
std::vector<ScoredPair> InheritedPairs(const SourceStore& donor);

}  // namespace entropydb

#endif  // ENTROPYDB_ENGINE_INGEST_H_
