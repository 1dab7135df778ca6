#ifndef ENTROPYDB_SAMPLING_SAMPLE_IO_H_
#define ENTROPYDB_SAMPLING_SAMPLE_IO_H_

#include <string>

#include "common/env.h"
#include "common/result.h"
#include "sampling/sample.h"

namespace entropydb {

/// Serializes a weighted sample (schema, domains, encoded rows, expansion
/// weights, name, fraction) to a line-oriented text file, the same style as
/// EntropySummary::Save; LoadSample restores it without the base table.
/// Attribute names and the sample name must be whitespace-free tokens (they
/// already are everywhere in this codebase); Save rejects offenders with
/// InvalidArgument rather than writing a file Load cannot reopen.
///
/// Format v4 holds the rows only: the sample's row-group index
/// (sample_index.h) is not written, because LoadSample derives it from the
/// rows. The payload ends in a CRC32C footer; writes go through `env` and
/// are synced to stable storage before SaveSample returns.
Status SaveSample(const WeightedSample& sample, const std::string& path,
                  Env* env = Env::Default());

/// Restores a sample written by SaveSample. The rebuilt table carries the
/// original domains, so query codes are position-compatible with summaries
/// of the same relation. Only format v4 with a valid checksum footer loads
/// (kCorruption otherwise, trailing data after the rows included;
/// `verify_checksums` = false skips the CRC math but still requires the
/// footer's presence). The loaded sample always carries the index
/// SampleIndex::Build derives from its rows.
Result<WeightedSample> LoadSample(const std::string& path,
                                  Env* env = Env::Default(),
                                  bool verify_checksums = true);

/// LoadSample without the read and without the index: restores a sample's
/// rows from `payload`, what ReadChecksummedFile returned for `path`
/// (which errors name). The index is sized by the file's domains, which
/// the file alone does not bound, so a store builds it only after checking
/// them against its summaries.
Result<WeightedSample> ParseSample(const std::string& payload,
                                   const std::string& path);

}  // namespace entropydb

#endif  // ENTROPYDB_SAMPLING_SAMPLE_IO_H_
