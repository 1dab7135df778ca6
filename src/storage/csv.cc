#include "storage/csv.h"

#include <fstream>

#include "common/str_util.h"
#include "storage/table_builder.h"

namespace entropydb {

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);

  const auto m = table.num_attributes();
  for (AttrId a = 0; a < m; ++a) {
    if (a > 0) out << ',';
    out << table.schema().attribute(a).name;
  }
  out << '\n';
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (AttrId a = 0; a < m; ++a) {
      if (a > 0) out << ',';
      const Domain& dom = table.domain(a);
      if (dom.is_categorical()) {
        out << dom.LabelFor(table.at(row, a));
      } else {
        out << dom.RepresentativeFor(table.at(row, a)).as_double();
      }
    }
    out << '\n';
  }
  if (!out.good()) return Status::IOError("write failure: " + path);
  return Status::OK();
}

Result<std::shared_ptr<Table>> ParseCsv(const Schema& schema,
                                        std::istream& in,
                                        const std::string& source,
                                        const std::vector<Domain>* domains) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Corruption("empty CSV in " + source);
  }
  auto header = SplitString(line, ',');
  if (header.size() != schema.num_attributes()) {
    return Status::InvalidArgument("CSV header arity mismatch in " + source);
  }
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    if (std::string(StripWhitespace(header[a])) != schema.attribute(a).name) {
      return Status::InvalidArgument("CSV header field '" + header[a] +
                                     "' != schema attribute '" +
                                     schema.attribute(a).name + "' in " +
                                     source);
    }
  }

  TableBuilder builder(schema);
  if (domains != nullptr) {
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      builder.SetDomain(a, (*domains)[a]);
    }
  }
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (StripWhitespace(line).empty()) continue;
    auto fields = SplitString(line, ',');
    if (fields.size() != schema.num_attributes()) {
      return Status::Corruption("CSV row arity mismatch at line " +
                                std::to_string(line_no) + " of " + source);
    }
    std::vector<Value> row;
    row.reserve(fields.size());
    for (AttrId a = 0; a < schema.num_attributes(); ++a) {
      if (schema.attribute(a).type == AttributeType::kCategorical) {
        row.emplace_back(std::string(StripWhitespace(fields[a])));
      } else {
        ASSIGN_OR_RETURN(double v, ParseDouble(fields[a]));
        row.emplace_back(v);
      }
    }
    RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

Result<std::shared_ptr<Table>> ReadCsv(const Schema& schema,
                                       const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return ParseCsv(schema, in, path);
}

}  // namespace entropydb
