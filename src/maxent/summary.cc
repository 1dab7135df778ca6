#include "maxent/summary.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/str_util.h"
#include "query/exact_evaluator.h"

namespace entropydb {

Result<std::shared_ptr<EntropySummary>> EntropySummary::Build(
    const Table& table, std::vector<MultiDimStatistic> mds,
    SummaryOptions opts) {
  const size_t m = table.num_attributes();
  ExactEvaluator eval(table);

  std::vector<uint32_t> sizes(m);
  std::vector<std::vector<double>> targets(m);
  std::vector<std::string> names(m);
  for (AttrId a = 0; a < m; ++a) {
    sizes[a] = table.domain(a).size();
    names[a] = table.schema().attribute(a).name;
    auto hist = eval.Histogram1D(a);
    targets[a].assign(hist.begin(), hist.end());
  }
  ASSIGN_OR_RETURN(VariableRegistry reg,
                   VariableRegistry::Create(
                       std::move(sizes), std::move(targets), std::move(mds),
                       static_cast<double>(table.num_rows())));
  return FromRegistry(std::move(reg), opts, std::move(names),
                      table.domains());
}

Result<std::shared_ptr<EntropySummary>> EntropySummary::FromRegistry(
    VariableRegistry reg, SummaryOptions opts,
    std::vector<std::string> attr_names, std::vector<Domain> domains) {
  ASSIGN_OR_RETURN(CompressedPolynomial poly,
                   CompressedPolynomial::Build(reg, opts.polynomial));
  ModelState state = ModelState::InitialState(reg);
  MaxEntSolver solver(reg, poly, opts.solver);
  ASSIGN_OR_RETURN(SolverReport report, solver.Solve(&state));
  if (attr_names.empty()) {
    attr_names.resize(reg.num_attributes());
    for (size_t a = 0; a < attr_names.size(); ++a) {
      attr_names[a] = "A" + std::to_string(a);
    }
  }
  return std::shared_ptr<EntropySummary>(
      new EntropySummary(std::move(reg), std::move(poly), std::move(state),
                         std::move(report), std::move(attr_names),
                         std::move(domains)));
}

namespace {
void WriteDoubles(std::ostream& out, const std::vector<double>& v) {
  char buf[32];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    if (i > 0) out << ' ';
    out << buf;
  }
  out << '\n';
}

Result<std::vector<double>> ReadDoubles(std::istream& in, size_t count) {
  std::vector<double> v(count);
  for (size_t i = 0; i < count; ++i) {
    if (!(in >> v[i])) return Status::Corruption("truncated double array");
  }
  return v;
}
}  // namespace

Status EntropySummary::Save(const std::string& path, Env* env) const {
  // The payload is composed in memory and handed to the Env in one
  // checksummed, synced write: stream state cannot be silently dropped,
  // and FaultInjectionEnv can account for every byte.
  std::ostringstream out;
  out << "ENTROPYDB_SUMMARY_V2\n";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", reg_.n());
  out << "n " << buf << "\n";
  out << "attrs " << reg_.num_attributes() << "\n";
  for (AttrId a = 0; a < reg_.num_attributes(); ++a) {
    out << attr_names_[a] << ' ' << reg_.domain_size(a) << '\n';
    WriteDoubles(out, reg_.one_d_targets()[a]);
    WriteDoubles(out, state_.alpha[a]);
  }
  out << "mds " << reg_.num_multi_dim() << "\n";
  for (uint32_t j = 0; j < reg_.num_multi_dim(); ++j) {
    const auto& s = reg_.multi_dim(j);
    out << s.attrs.size();
    for (size_t i = 0; i < s.attrs.size(); ++i) {
      out << ' ' << s.attrs[i] << ' ' << s.ranges[i].lo << ' '
          << s.ranges[i].hi;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", s.target);
    out << ' ' << buf;
    std::snprintf(buf, sizeof(buf), "%.17g", state_.delta[j]);
    out << ' ' << buf << '\n';
  }
  out << "domains " << domains_.size() << "\n";
  for (const Domain& d : domains_) {
    if (d.is_categorical()) {
      out << "cat " << d.size() << '\n';
      for (Code v = 0; v < d.size(); ++v) out << d.LabelFor(v) << '\n';
    } else {
      std::snprintf(buf, sizeof(buf), "%.17g", d.bin_lo());
      out << "bin " << buf;
      std::snprintf(buf, sizeof(buf), "%.17g", d.bin_hi());
      out << ' ' << buf << ' ' << d.size() << '\n';
    }
  }
  if (!out.good()) {
    return Status::Internal("summary serialization failure: " + path);
  }
  return WriteChecksummedFile(env, path, out.str());
}

Result<std::shared_ptr<EntropySummary>> EntropySummary::Load(
    const std::string& path, SummaryOptions opts, Env* env) {
  ASSIGN_OR_RETURN(std::string payload,
                   ReadChecksummedFile(env, path, opts.verify_checksums));
  return Parse(payload, path, opts);
}

Result<std::shared_ptr<EntropySummary>> EntropySummary::Parse(
    const std::string& payload, const std::string& path,
    SummaryOptions opts) {
  std::istringstream in(payload);
  std::string token;
  if (!(in >> token) || token != "ENTROPYDB_SUMMARY_V2") {
    return Status::Corruption("bad summary header in " + path);
  }
  double n = 0.0;
  size_t m = 0;
  if (!(in >> token >> n) || token != "n") {
    return Status::Corruption("bad n record");
  }
  if (!(in >> token) || token != "attrs") {
    return Status::Corruption("bad attrs record");
  }
  RETURN_NOT_OK(ReadCount(in, kMinNumberBytes, path, "attrs", &m));
  std::vector<std::string> names(m);
  std::vector<uint32_t> sizes(m);
  std::vector<std::vector<double>> targets(m);
  std::vector<std::vector<double>> alphas(m);
  for (size_t a = 0; a < m; ++a) {
    size_t size = 0;
    if (!(in >> names[a])) return Status::Corruption("bad attribute record");
    RETURN_NOT_OK(ReadCount(in, kMinNumberBytes, path, "attribute size",
                            &size));
    if (size > UINT32_MAX) return Status::Corruption("bad attribute record");
    sizes[a] = static_cast<uint32_t>(size);
    ASSIGN_OR_RETURN(targets[a], ReadDoubles(in, sizes[a]));
    ASSIGN_OR_RETURN(alphas[a], ReadDoubles(in, sizes[a]));
  }
  size_t k = 0;
  if (!(in >> token) || token != "mds") {
    return Status::Corruption("bad mds record");
  }
  RETURN_NOT_OK(ReadCount(in, kMinNumberBytes, path, "mds", &k));
  std::vector<MultiDimStatistic> mds(k);
  std::vector<double> deltas(k);
  for (size_t j = 0; j < k; ++j) {
    size_t nattrs = 0;
    RETURN_NOT_OK(
        ReadCount(in, kMinNumberBytes, path, "statistic arity", &nattrs));
    mds[j].attrs.resize(nattrs);
    mds[j].ranges.resize(nattrs);
    for (size_t i = 0; i < nattrs; ++i) {
      if (!(in >> mds[j].attrs[i] >> mds[j].ranges[i].lo >>
            mds[j].ranges[i].hi)) {
        return Status::Corruption("bad statistic rectangle");
      }
    }
    if (!(in >> mds[j].target >> deltas[j])) {
      return Status::Corruption("bad statistic values");
    }
  }

  // "domains 0" marks a summary built without persisted domains.
  std::vector<Domain> domains;
  size_t num_domains = 0;
  if (!(in >> token >> num_domains) || token != "domains") {
    return Status::Corruption("bad domains record in " + path);
  }
  if (num_domains > 0) {
    if (num_domains != m) {
      return Status::Corruption("domain count mismatch");
    }
    domains.reserve(m);
    for (size_t a = 0; a < m; ++a) {
      std::string kind;
      if (!(in >> kind)) return Status::Corruption("truncated domain");
      if (kind == "cat") {
        size_t count = 0;
        RETURN_NOT_OK(
            ReadCount(in, kMinLabelBytes, path, "domain labels", &count));
        std::string line;
        std::getline(in, line);  // consume the rest of the header line
        std::vector<std::string> labels(count);
        for (auto& l : labels) {
          if (!std::getline(in, l)) {
            return Status::Corruption("truncated labels");
          }
        }
        domains.push_back(Domain::Categorical(std::move(labels)));
      } else if (kind == "bin") {
        double lo = 0, hi = 0;
        uint32_t buckets = 0;
        if (!(in >> lo >> hi >> buckets)) {
          return Status::Corruption("bad binned domain");
        }
        domains.push_back(Domain::Binned(lo, hi, buckets));
      } else {
        return Status::Corruption("unknown domain kind: " + kind);
      }
      if (domains.back().size() != sizes[a]) {
        return Status::Corruption("domain size mismatch on attribute " +
                                  std::to_string(a));
      }
    }
  }
  if (in >> token) {
    return Status::Corruption("trailing data after the domains in " + path);
  }

  ASSIGN_OR_RETURN(VariableRegistry reg,
                   VariableRegistry::Create(std::move(sizes),
                                            std::move(targets),
                                            std::move(mds), n));
  ASSIGN_OR_RETURN(CompressedPolynomial poly,
                   CompressedPolynomial::Build(reg, opts.polynomial));
  ModelState state;
  state.alpha = std::move(alphas);
  state.delta = std::move(deltas);
  SolverReport report;  // solved offline; report intentionally empty
  auto summary = std::shared_ptr<EntropySummary>(
      new EntropySummary(std::move(reg), std::move(poly), std::move(state),
                         std::move(report), std::move(names),
                         std::move(domains)));
  // The answerer warmed its workspace pool above (the shared factor cache
  // is built eagerly), so the solved-state sanity check is free: corrupt
  // or truncated parameters surface here rather than as
  // FailedPrecondition on the first query.
  if (!(summary->answerer_->FullPolynomialValue() > 0.0)) {
    return Status::Corruption(
        "summary parameters evaluate to a non-positive polynomial: " + path);
  }
  return summary;
}

}  // namespace entropydb
