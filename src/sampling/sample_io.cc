#include "sampling/sample_io.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "storage/table_builder.h"

namespace entropydb {

namespace {
void WriteDouble(std::ostream& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

bool HasWhitespace(const std::string& s) {
  return s.find_first_of(" \t\n\r") != std::string::npos;
}
}  // namespace

Status SaveSample(const WeightedSample& sample, const std::string& path,
                  Env* env) {
  if (sample.rows == nullptr) {
    return Status::InvalidArgument("sample has no row table");
  }
  const Table& t = *sample.rows;
  // The format is token-oriented (LoadSample reads names with >>): reject
  // whitespace up front instead of writing a file Load can never reopen.
  if (HasWhitespace(sample.name)) {
    return Status::InvalidArgument("sample name contains whitespace: '" +
                                   sample.name + "'");
  }
  for (AttrId a = 0; a < t.num_attributes(); ++a) {
    if (HasWhitespace(t.schema().attribute(a).name)) {
      return Status::InvalidArgument("attribute name contains whitespace: '" +
                                     t.schema().attribute(a).name + "'");
    }
  }
  std::ostringstream out;
  out << "ENTROPYDB_SAMPLE_V4\n";
  out << "name " << (sample.name.empty() ? "sample" : sample.name) << '\n';
  out << "fraction ";
  WriteDouble(out, sample.fraction);
  out << '\n';
  out << "attrs " << t.num_attributes() << '\n';
  for (AttrId a = 0; a < t.num_attributes(); ++a) {
    const Domain& d = t.domain(a);
    out << t.schema().attribute(a).name;
    if (d.is_categorical()) {
      out << " cat " << d.size() << '\n';
      for (Code v = 0; v < d.size(); ++v) out << d.LabelFor(v) << '\n';
    } else {
      out << " bin ";
      WriteDouble(out, d.bin_lo());
      out << ' ';
      WriteDouble(out, d.bin_hi());
      out << ' ' << d.size() << '\n';
    }
  }
  out << "rows " << t.num_rows() << '\n';
  for (size_t r = 0; r < t.num_rows(); ++r) {
    for (AttrId a = 0; a < t.num_attributes(); ++a) {
      out << t.at(r, a) << ' ';
    }
    WriteDouble(out, sample.weights[r]);
    out << '\n';
  }
  if (!out.good()) {
    return Status::Internal("sample serialization failure: " + path);
  }
  return WriteChecksummedFile(env, path, out.str());
}

Result<WeightedSample> LoadSample(const std::string& path, Env* env,
                                  bool verify_checksums) {
  ASSIGN_OR_RETURN(std::string payload,
                   ReadChecksummedFile(env, path, verify_checksums));
  ASSIGN_OR_RETURN(WeightedSample sample, ParseSample(payload, path));
  sample.index = SampleIndex::Build(*sample.rows);
  return sample;
}

Result<WeightedSample> ParseSample(const std::string& payload,
                                   const std::string& path) {
  std::istringstream in(payload);
  std::string token;
  if (!(in >> token) || token != "ENTROPYDB_SAMPLE_V4") {
    return Status::Corruption("bad sample header in " + path);
  }
  WeightedSample sample;
  if (!(in >> token >> sample.name) || token != "name") {
    return Status::Corruption("bad sample name record in " + path);
  }
  if (!(in >> token >> sample.fraction) || token != "fraction") {
    return Status::Corruption("bad sample fraction record in " + path);
  }
  size_t m = 0;
  if (!(in >> token) || token != "attrs") {
    return Status::Corruption("bad sample attrs record in " + path);
  }
  RETURN_NOT_OK(ReadCount(in, kMinNumberBytes, path, "attrs", &m));
  if (m == 0) return Status::Corruption("bad sample attrs record in " + path);
  std::vector<AttributeSpec> specs(m);
  std::vector<Domain> domains(m);
  for (size_t a = 0; a < m; ++a) {
    std::string kind;
    if (!(in >> specs[a].name >> kind)) {
      return Status::Corruption("truncated sample attribute in " + path);
    }
    if (kind == "cat") {
      size_t count = 0;
      RETURN_NOT_OK(
          ReadCount(in, kMinLabelBytes, path, "domain labels", &count));
      std::string line;
      std::getline(in, line);  // consume the rest of the header line
      std::vector<std::string> labels(count);
      for (auto& l : labels) {
        if (!std::getline(in, l)) {
          return Status::Corruption("truncated sample labels in " + path);
        }
      }
      specs[a].type = AttributeType::kCategorical;
      domains[a] = Domain::Categorical(std::move(labels));
    } else if (kind == "bin") {
      double lo = 0, hi = 0;
      uint32_t buckets = 0;
      if (!(in >> lo >> hi >> buckets)) {
        return Status::Corruption("bad binned sample domain in " + path);
      }
      specs[a].type = AttributeType::kNumeric;
      specs[a].buckets = buckets;
      domains[a] = Domain::Binned(lo, hi, buckets);
    } else {
      return Status::Corruption("unknown sample domain kind: " + kind);
    }
  }
  size_t rows = 0;
  if (!(in >> token) || token != "rows") {
    return Status::Corruption("bad sample rows record in " + path);
  }
  // A row is m codes and a weight, each at least a digit and a separator.
  RETURN_NOT_OK(ReadCount(in, (m + 1) * kMinNumberBytes, path, "rows", &rows));
  TableBuilder builder(Schema{std::move(specs)});
  for (AttrId a = 0; a < m; ++a) builder.SetDomain(a, domains[a]);
  std::vector<Code> row(m);
  sample.weights.resize(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < m; ++a) {
      if (!(in >> row[a])) {
        return Status::Corruption("truncated sample row in " + path);
      }
    }
    if (!(in >> sample.weights[r])) {
      return Status::Corruption("truncated sample weight in " + path);
    }
    // An expansion weight is 1 / inclusion probability: finite and >= 1.
    // Anything else under a valid footer is a corrupt file, and would
    // also break the estimator's non-negative variance terms.
    if (!std::isfinite(sample.weights[r]) || sample.weights[r] < 1.0) {
      return Status::Corruption("bad sample weight in " + path);
    }
    builder.AppendEncodedRow(row);
  }
  // The footer vouches for the bytes, not for the codes: a stored code
  // outside its attribute's domain is a corrupt file, not a bad argument.
  auto table = builder.Finish();
  if (!table.ok()) {
    return Status::Corruption("bad sample rows in " + path + ": " +
                              table.status().message());
  }
  sample.rows = std::move(table).ValueOrDie();

  if (in >> token) {
    return Status::Corruption("trailing data after the sample rows in " +
                              path);
  }
  return sample;
}

}  // namespace entropydb
