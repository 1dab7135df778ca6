#ifndef ENTROPYDB_STORAGE_CSV_H_
#define ENTROPYDB_STORAGE_CSV_H_

#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/domain.h"
#include "storage/table.h"

namespace entropydb {

/// Writes `table` to `path` as comma-separated bucket labels with a header
/// row of attribute names.
Status WriteCsv(const Table& table, const std::string& path);

/// Parses CSV text into an encoded table. The header must match the
/// schema's attribute names; blank lines are skipped; fields are parsed
/// according to each attribute's declared type (categorical fields taken
/// verbatim, numeric parsed as double). Domains derive from the data, or,
/// when `domains` is non-null (one per attribute), rows encode within
/// those pinned domains: unknown labels fail, binned values clamp to the
/// outer buckets. `source` names the input in error messages.
Result<std::shared_ptr<Table>> ParseCsv(
    const Schema& schema, std::istream& in, const std::string& source,
    const std::vector<Domain>* domains = nullptr);

/// ParseCsv over the file at `path` (kIOError when it cannot be opened).
Result<std::shared_ptr<Table>> ReadCsv(const Schema& schema,
                                       const std::string& path);

}  // namespace entropydb

#endif  // ENTROPYDB_STORAGE_CSV_H_
