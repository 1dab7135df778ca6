#include "engine/source_store.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

#include "common/thread_pool.h"
#include "sampling/sample_io.h"
#include "sampling/stratified_sampler.h"
#include "sampling/uniform_sampler.h"

namespace entropydb {

namespace fs = std::filesystem;

namespace {

void WritePairs(std::ostream& out, const std::vector<ScoredPair>& pairs) {
  char buf[32];
  out << "pairs " << pairs.size();
  for (const ScoredPair& p : pairs) {
    std::snprintf(buf, sizeof(buf), "%.17g", p.cramers_v);
    out << ' ' << p.a << ' ' << p.b << ' ' << buf;
  }
}

Status ReadPairs(std::istringstream& in, const std::string& path,
                 std::vector<ScoredPair>* pairs) {
  std::string token;
  size_t npairs = 0;
  if (!(in >> token) || token != "pairs") {
    return Status::Corruption("bad pair record in " + path);
  }
  // A pair is two attribute ids and a score.
  RETURN_NOT_OK(ReadCount(in, 3 * kMinNumberBytes, path, "pairs", &npairs));
  pairs->resize(npairs);
  for (ScoredPair& p : *pairs) {
    if (!(in >> p.a >> p.b >> p.cramers_v)) {
      return Status::Corruption("bad pair record in " + path);
    }
  }
  return Status::OK();
}

}  // namespace

SourceStore::SourceStore(std::vector<StoreEntry> entries,
                         std::vector<SampleEntry> samples)
    : entries_(std::move(entries)), samples_(std::move(samples)) {
  size_t best_span = 0;
  for (size_t k = 0; k < entries_.size(); ++k) {
    std::set<AttrId> span;
    for (const ScoredPair& p : entries_[k].pairs) {
      span.insert(p.a);
      span.insert(p.b);
    }
    if (span.size() > best_span) {
      best_span = span.size();
      widest_ = k;
    }
  }
  sample_estimators_.reserve(samples_.size());
  for (const SampleEntry& s : samples_) {
    sample_estimators_.emplace_back(*s.sample);
  }
}

Result<std::shared_ptr<SourceStore>> SourceStore::FromEntries(
    std::vector<StoreEntry> entries) {
  return FromParts(std::move(entries), {});
}

Result<std::shared_ptr<SourceStore>> SourceStore::FromParts(
    std::vector<StoreEntry> entries, std::vector<SampleEntry> samples) {
  if (entries.empty()) {
    return Status::InvalidArgument("a source store needs at least one summary");
  }
  for (const StoreEntry& e : entries) {
    if (e.summary == nullptr) {
      return Status::InvalidArgument("store entry without a summary");
    }
  }
  // Every source must model the SAME relation: same arity, and the same
  // active domains attribute by attribute — a same-arity source of a
  // DIFFERENT relation must not silently join the store (its codes would
  // be position-compatible but mean different values, and group-by
  // widths would depend on which source routing picked).
  const EntropySummary& ref = *entries.front().summary;
  for (const StoreEntry& e : entries) {
    if (e.summary->num_attributes() != ref.num_attributes() ||
        e.summary->n() != ref.n()) {
      return Status::InvalidArgument(
          "store entries disagree on the relation schema");
    }
    for (AttrId a = 0; a < ref.num_attributes(); ++a) {
      if (e.summary->registry().domain_size(a) !=
          ref.registry().domain_size(a)) {
        return Status::InvalidArgument(
            "store entry domain size mismatch on attribute " +
            std::to_string(a));
      }
    }
  }
  for (const SampleEntry& s : samples) {
    if (s.sample == nullptr || s.sample->rows == nullptr) {
      return Status::InvalidArgument("store sample without a row table");
    }
    if (s.sample->rows->num_attributes() != ref.num_attributes()) {
      return Status::InvalidArgument(
          "store sample disagrees on the relation schema");
    }
    for (AttrId a = 0; a < ref.num_attributes(); ++a) {
      if (s.sample->rows->domain(a).size() != ref.registry().domain_size(a)) {
        return Status::InvalidArgument(
            "store sample domain size mismatch on attribute " +
            std::to_string(a));
      }
    }
    if (s.sample->weights.size() != s.sample->rows->num_rows()) {
      return Status::InvalidArgument("store sample weight/row count mismatch");
    }
  }
  return std::shared_ptr<SourceStore>(
      new SourceStore(std::move(entries), std::move(samples)));
}

Result<std::vector<ScoredPair>> SourceStore::ResolvePairs(
    const Table& table, const StoreOptions& opts) {
  std::vector<ScoredPair> chosen;
  if (!opts.forced_pairs.empty()) {
    chosen = opts.forced_pairs;
  } else if (opts.use_budget_advisor) {
    AdvisorOptions aopts;
    aopts.exclude = opts.exclude;
    ASSIGN_OR_RETURN(std::vector<BudgetCandidate> candidates,
                     BudgetAdvisor::Advise(table, opts.total_budget, aopts));
    chosen = candidates.front().pairs;  // best split first
  } else {
    auto ranked = PairSelector::RankPairs(table, opts.exclude);
    chosen = PairSelector::Choose(ranked, opts.num_summaries,
                                  PairStrategy::kAttributeCover);
  }
  if (chosen.empty()) {
    return Status::InvalidArgument(
        "no attribute pairs available for a source store");
  }
  for (const ScoredPair& p : chosen) {
    if (p.a >= table.num_attributes() || p.b >= table.num_attributes()) {
      return Status::InvalidArgument(
          "forced pair references an attribute outside the relation");
    }
  }
  return chosen;
}

Result<std::shared_ptr<SourceStore>> SourceStore::Build(const Table& table,
                                                        StoreOptions opts) {
  ASSIGN_OR_RETURN(std::vector<ScoredPair> chosen,
                   ResolvePairs(table, opts));
  const size_t k = chosen.size();
  const size_t bs = std::max<size_t>(1, opts.total_budget / k);

  // Independent builds: select each pair's statistics and solve its model
  // in parallel. Outputs are disjoint slots, so results are deterministic.
  std::vector<StoreEntry> entries(k);
  std::vector<Status> statuses(k, Status::OK());
  StatisticSelector selector(opts.heuristic);
  ParallelFor(k, 2, [&](size_t i) {
    const ScoredPair& pair = chosen[i];
    auto stats = selector.Select(table, pair.a, pair.b, bs);
    auto built = EntropySummary::Build(table, std::move(stats), opts.summary);
    if (!built.ok()) {
      statuses[i] = built.status();
      return;
    }
    entries[i].summary = *built;
    entries[i].pairs = {pair};
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }

  // Sample companions: stratified on the same top-ranked pairs (the
  // paper's Sec 6.2 baselines), plus an optional uniform sample. Draws are
  // cheap relative to solver runs; keep them serial and deterministic.
  std::vector<std::shared_ptr<WeightedSample>> drawn_samples;
  std::vector<std::vector<ScoredPair>> sample_pairs;
  const size_t ns = std::min(opts.num_stratified_samples, chosen.size());
  for (size_t i = 0; i < ns; ++i) {
    const ScoredPair& pair = chosen[i];
    ASSIGN_OR_RETURN(
        WeightedSample drawn,
        StratifiedSampler::Create(table, pair.a, pair.b,
                                  opts.sample_fraction,
                                  opts.sample_seed + i));
    drawn.name = "Strat(" + table.schema().attribute(pair.a).name + "," +
                 table.schema().attribute(pair.b).name + ")";
    drawn_samples.push_back(std::make_shared<WeightedSample>(std::move(drawn)));
    sample_pairs.push_back({pair});
  }
  if (opts.uniform_sample) {
    ASSIGN_OR_RETURN(WeightedSample drawn,
                     UniformSampler::Create(table, opts.sample_fraction,
                                            opts.sample_seed + ns));
    drawn_samples.push_back(std::make_shared<WeightedSample>(std::move(drawn)));
    sample_pairs.push_back({});
  }
  // Row-group indexes: per-sample counting sorts are independent, so they
  // fan out on the shared pool. Indexed evaluation is bitwise identical
  // to the scan path; the index only moves route-time latency.
  ParallelFor(drawn_samples.size(), 2, [&](size_t i) {
    drawn_samples[i]->index = SampleIndex::Build(*drawn_samples[i]->rows);
  });
  std::vector<SampleEntry> samples(drawn_samples.size());
  for (size_t i = 0; i < drawn_samples.size(); ++i) {
    samples[i].sample = std::move(drawn_samples[i]);
    samples[i].pairs = std::move(sample_pairs[i]);
  }
  return FromParts(std::move(entries), std::move(samples));
}

Status SourceStore::SaveContents(const std::string& dir, Env* env) const {
  RETURN_NOT_OK(env->CreateDirs(dir));
  std::ostringstream out;
  out << "ENTROPYDB_STORE_V4 mono\n";
  out << "summaries " << entries_.size() << "\n";
  for (size_t k = 0; k < entries_.size(); ++k) {
    const std::string file = "summary_" + std::to_string(k) + ".edb";
    out << "entry " << file << ' ';
    WritePairs(out, entries_[k].pairs);
    out << '\n';
    RETURN_NOT_OK(
        entries_[k].summary->Save((fs::path(dir) / file).string(), env));
  }
  out << "samples " << samples_.size() << "\n";
  for (size_t i = 0; i < samples_.size(); ++i) {
    const std::string file = "sample_" + std::to_string(i) + ".eds";
    out << "sample " << file << ' ';
    WritePairs(out, samples_[i].pairs);
    out << '\n';
    RETURN_NOT_OK(SaveSample(*samples_[i].sample,
                             (fs::path(dir) / file).string(), env));
  }
  if (!out.good()) {
    return Status::Internal("manifest serialization failure in " + dir);
  }
  // The MANIFEST goes last: its presence certifies every file it names was
  // already written and synced. Then sync the directory so the entries
  // themselves are durable.
  RETURN_NOT_OK(WriteChecksummedFile(
      env, (fs::path(dir) / "MANIFEST").string(), out.str()));
  return env->SyncDir(dir);
}

Status SourceStore::Save(const std::string& dir, Env* env) const {
  const std::string stage = StagingDirFor(dir);
  Status s = SaveContents(stage, env);
  if (s.ok()) s = env->PublishDir(stage, dir);
  if (!s.ok()) env->RemoveAll(stage).ok();  // best-effort cleanup
  return s;
}

Result<std::shared_ptr<SourceStore>> SourceStore::Load(
    const std::string& dir, SummaryOptions opts, Env* env) {
  RemoveStaleStagingDirs(env, dir);
  return LoadFrom(dir, opts, [&](const std::string& file) {
    return ReadChecksummedFile(env, (fs::path(dir) / file).string(),
                               opts.verify_checksums);
  });
}

Result<std::shared_ptr<SourceStore>> SourceStore::LoadFrom(
    const std::string& dir, SummaryOptions opts,
    const std::function<Result<std::string>(const std::string&)>& read) {
  ASSIGN_OR_RETURN(std::string payload, read("MANIFEST"));
  const std::string manifest = (fs::path(dir) / "MANIFEST").string();
  std::istringstream in(payload);
  std::string token;
  if (!(in >> token) || token != "ENTROPYDB_STORE_V4") {
    return Status::Corruption("bad store manifest header in " + dir);
  }
  std::string kind;
  if (!(in >> kind) || kind != "mono") {
    return Status::InvalidArgument(
        "not a mono store manifest in " + dir +
        " (open sharded stores through EntropyEngine)");
  }
  size_t k = 0;
  if (!(in >> token) || token != "summaries") {
    return Status::Corruption("bad summaries record in " + dir);
  }
  RETURN_NOT_OK(ReadCount(in, kMinNumberBytes, manifest, "summaries", &k));
  if (k == 0) return Status::Corruption("bad summaries record in " + dir);
  std::vector<std::string> files(k);
  std::vector<StoreEntry> entries(k);
  for (size_t i = 0; i < k; ++i) {
    if (!(in >> token >> files[i]) || token != "entry") {
      return Status::Corruption("bad store entry record in " + dir);
    }
    RETURN_NOT_OK(ReadPairs(in, manifest, &entries[i].pairs));
  }

  size_t ns = 0;
  if (!(in >> token) || token != "samples") {
    return Status::Corruption("bad samples record in " + dir);
  }
  RETURN_NOT_OK(ReadCount(in, kMinNumberBytes, manifest, "samples", &ns));
  std::vector<std::string> sample_files(ns);
  std::vector<SampleEntry> samples(ns);
  std::vector<std::shared_ptr<WeightedSample>> parsed(ns);
  for (size_t i = 0; i < ns; ++i) {
    if (!(in >> token >> sample_files[i]) || token != "sample") {
      return Status::Corruption("bad store sample record in " + dir);
    }
    RETURN_NOT_OK(ReadPairs(in, manifest, &samples[i].pairs));
  }
  if (in >> token) {
    return Status::Corruption("trailing data after the samples in " + manifest);
  }

  // Source loads are independent (each summary rebuilds its own compressed
  // polynomial and warms its own pool), so fan them all out.
  std::vector<Status> statuses(k + ns, Status::OK());
  ParallelFor(k + ns, 2, [&](size_t i) {
    statuses[i] = [&]() -> Status {
      const std::string& file = i < k ? files[i] : sample_files[i - k];
      ASSIGN_OR_RETURN(std::string contents, read(file));
      const std::string path = (fs::path(dir) / file).string();
      if (i < k) {
        ASSIGN_OR_RETURN(entries[i].summary,
                         EntropySummary::Parse(contents, path, opts));
      } else {
        ASSIGN_OR_RETURN(WeightedSample sample, ParseSample(contents, path));
        parsed[i - k] = std::make_shared<WeightedSample>(std::move(sample));
        samples[i - k].sample = parsed[i - k];
      }
      return Status::OK();
    }();
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  auto store = FromParts(std::move(entries), std::move(samples));
  if (!store.ok()) {
    return Status::Corruption("inconsistent store in " + dir + ": " +
                              store.status().message());
  }
  // Pair metadata must reference real attributes.
  const size_t m = (*store)->num_attributes();
  auto check_pairs = [&](const std::vector<ScoredPair>& pairs) {
    for (const ScoredPair& p : pairs) {
      if (p.a >= m || p.b >= m) return false;
    }
    return true;
  };
  for (size_t i = 0; i < (*store)->size(); ++i) {
    if (!check_pairs((*store)->entry(i).pairs)) {
      return Status::Corruption("pair attribute out of range in " + dir);
    }
  }
  for (size_t i = 0; i < (*store)->num_samples(); ++i) {
    if (!check_pairs((*store)->sample_entry(i).pairs)) {
      return Status::Corruption("pair attribute out of range in " + dir);
    }
  }
  // FromParts checked each sample's domains against the summaries', so
  // the indexes they size are bounded by the summaries' bytes.
  ParallelFor(ns, 2, [&](size_t i) {
    parsed[i]->index = SampleIndex::Build(*parsed[i]->rows);
  });
  return store;
}

}  // namespace entropydb
