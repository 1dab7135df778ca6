// Corruption fuzzing: every persisted artifact of a saved mono and a
// saved sharded store is bit-flipped, truncated, and deleted, and
// EntropyEngine::Open must fail with a typed error (kCorruption or
// kIOError) — never crash, never return a half-valid store. Each artifact
// has exactly one accepted format version: an older header under a valid
// footer is kCorruption too.

#include <algorithm>
#include <filesystem>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "engine/compaction.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "engine/sharded_store.h"
#include "maxent/summary.h"

namespace entropydb {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<Table> TwoPairTable(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<Code>> rows(n, std::vector<Code>(5));
  for (auto& row : rows) {
    row[0] = static_cast<Code>(rng.Uniform(6));
    row[1] = rng.NextBernoulli(0.85) ? row[0]
                                     : static_cast<Code>(rng.Uniform(6));
    row[2] = static_cast<Code>(rng.Uniform(5));
    row[3] = rng.NextBernoulli(0.85) ? row[2]
                                     : static_cast<Code>(rng.Uniform(5));
    row[4] = static_cast<Code>(rng.Uniform(4));
  }
  return testutil::MakeTable({6, 6, 5, 5, 4}, rows);
}

StoreOptions SmallStoreOptions() {
  StoreOptions opts;
  opts.num_summaries = 2;
  opts.total_budget = 40;
  opts.summary.solver.max_iterations = 120;
  opts.num_stratified_samples = 1;
  opts.uniform_sample = true;
  opts.sample_fraction = 0.05;
  return opts;
}

/// Builds and saves the two pristine fixtures ONCE; every fuzz iteration
/// clones a fixture, mutates one file, and opens the clone.
class CorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    root_ = new std::string(
        (fs::temp_directory_path() / "entropydb_corruption_test").string());
    fs::remove_all(*root_);
    fs::create_directories(*root_);

    auto table = TwoPairTable(1200, 163);
    auto mono = SourceStore::Build(*table, SmallStoreOptions());
    ASSERT_TRUE(mono.ok()) << mono.status().ToString();
    ASSERT_TRUE((*mono)->Save(MonoDir()).ok());

    ShardedOptions sopts;
    sopts.num_shards = 2;
    sopts.store = SmallStoreOptions();
    auto sharded = ShardedStore::Build(*table, sopts);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ASSERT_TRUE((*sharded)->Save(ShardedDir()).ok());

    // The ingest-grown fixture: two sealed batches, so the walk covers
    // the journal and the shard_b* dirs ingest publishes.
    fs::copy(ShardedDir(), AppendedDir(), fs::copy_options::recursive);
    for (uint64_t b = 0; b < 2; ++b) {
      Rng rng(211 + b);
      std::string csv = "A0,A1,A2,A3,A4\n";
      for (size_t i = 0; i < 120; ++i) {
        csv += std::to_string(rng.Uniform(6)) + "," +
               std::to_string(rng.Uniform(6)) + "," +
               std::to_string(rng.Uniform(5)) + "," +
               std::to_string(rng.Uniform(5)) + "," +
               std::to_string(rng.Uniform(4)) + "\n";
      }
      auto report = AppendBatch(AppendedDir(), csv, SmallStoreOptions());
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }

    // The compacted fixture: the batch shards above folded into a
    // shard_c* replacement, so the walk covers compaction's artifacts.
    fs::copy(AppendedDir(), CompactedDir(), fs::copy_options::recursive);
    CompactionOptions copts;
    copts.store = SmallStoreOptions();
    copts.max_batch_shards = 1;
    auto compacted = RunCompaction(CompactedDir(), copts);
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    ASSERT_TRUE(compacted->ran);
  }

  static void TearDownTestSuite() {
    fs::remove_all(*root_);
    delete root_;
    root_ = nullptr;
  }

  static std::string MonoDir() { return *root_ + "/mono"; }
  static std::string ShardedDir() { return *root_ + "/sharded"; }
  static std::string AppendedDir() { return *root_ + "/appended"; }
  static std::string CompactedDir() { return *root_ + "/compacted"; }
  std::string ScratchDir() const { return *root_ + "/scratch"; }

  /// All regular files under `dir`, as paths relative to it.
  static std::vector<std::string> FilesUnder(const std::string& dir) {
    std::vector<std::string> out;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) {
        out.push_back(fs::relative(e.path(), dir).string());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Clones `src` into the scratch dir and returns the clone's path.
  std::string Clone(const std::string& src) const {
    fs::remove_all(ScratchDir());
    fs::copy(src, ScratchDir(), fs::copy_options::recursive);
    return ScratchDir();
  }

  /// Open must fail CLEANLY on a mutated store: a typed corruption or I/O
  /// error, no crash, no store object.
  static void ExpectOpenFailsCleanly(const std::string& dir,
                                     const std::string& what) {
    auto opened = EntropyEngine::Open(dir);
    ASSERT_FALSE(opened.ok()) << what << ": mutated store opened OK";
    const StatusCode code = opened.status().code();
    EXPECT_TRUE(code == StatusCode::kCorruption ||
                code == StatusCode::kIOError)
        << what << ": unexpected status " << opened.status().ToString();
  }

  /// Runs the full mutation battery against every file of a saved store.
  void FuzzEveryFile(const std::string& pristine) {
    for (const std::string& rel : FilesUnder(pristine)) {
      // The ingest journal is the ONE file Open never reads (sealing and
      // recovery own it), so no journal damage may fail an open — torn
      // or lost records surface on the next ingest call, not at load.
      const bool is_wal = fs::path(rel).filename() == kIngestWalName;
      const uint64_t size = fs::file_size(fs::path(pristine) / rel);
      ASSERT_GT(size, 0u) << rel;
      // Bit flips: spread through the payload plus the footer region
      // (tag, hex digits, trailing newline).
      std::vector<uint64_t> offsets = {0,        size / 3, size / 2,
                                       size - 16, size - 8, size - 1};
      for (uint64_t off : offsets) {
        if (off >= size) continue;
        const std::string dir = Clone(pristine);
        const std::string path = (fs::path(dir) / rel).string();
        std::string raw;
        ASSERT_TRUE(Env::Default()->ReadFile(path, &raw).ok());
        raw[off] ^= 0x04;
        ASSERT_TRUE(Env::Default()->WriteFile(path, raw).ok());
        if (is_wal) {
          EXPECT_TRUE(EntropyEngine::Open(dir).ok())
              << rel << " flip@" << off << " failed the open";
        } else {
          ExpectOpenFailsCleanly(dir, rel + " flip@" + std::to_string(off));
        }
      }
      // Truncations: empty, half, and one byte short.
      for (uint64_t keep : {uint64_t{0}, size / 2, size - 1}) {
        const std::string dir = Clone(pristine);
        fs::resize_file(fs::path(dir) / rel, keep);
        if (is_wal) {
          EXPECT_TRUE(EntropyEngine::Open(dir).ok())
              << rel << " trunc@" << keep << " failed the open";
        } else {
          ExpectOpenFailsCleanly(dir, rel + " trunc@" + std::to_string(keep));
        }
      }
      // Deletion.
      {
        const std::string dir = Clone(pristine);
        fs::remove(fs::path(dir) / rel);
        if (is_wal) {
          auto opened = EntropyEngine::Open(dir);
          EXPECT_TRUE(opened.ok())
              << rel << " deleted: tolerated-damage open failed: "
              << opened.status().ToString();
        } else {
          ExpectOpenFailsCleanly(dir, rel + " deleted");
        }
      }
    }
  }

  static std::string* root_;
};

std::string* CorruptionTest::root_ = nullptr;

TEST_F(CorruptionTest, MonoStoreSurvivesMutationFuzz) {
  // Sanity: the pristine fixture opens.
  ASSERT_TRUE(EntropyEngine::Open(MonoDir()).ok());
  FuzzEveryFile(MonoDir());
}

TEST_F(CorruptionTest, ShardedStoreSurvivesMutationFuzz) {
  ASSERT_TRUE(EntropyEngine::Open(ShardedDir()).ok());
  FuzzEveryFile(ShardedDir());
}

TEST_F(CorruptionTest, AppendedStoreSurvivesMutationFuzz) {
  // Ingest-grown stores add artifacts the bulk-save path never writes:
  // the journal and the sealed shard_b* dirs. All of them get the same
  // battery (the journal with inverted expectations — see FuzzEveryFile).
  auto pristine = EntropyEngine::Open(AppendedDir());
  ASSERT_TRUE(pristine.ok());
  EXPECT_EQ((*pristine)->num_shards(), 4u);
  FuzzEveryFile(AppendedDir());
}

TEST_F(CorruptionTest, CompactedStoreSurvivesMutationFuzz) {
  auto pristine = EntropyEngine::Open(CompactedDir());
  ASSERT_TRUE(pristine.ok());
  EXPECT_EQ((*pristine)->sharded()->compaction_gen(), 1u);
  FuzzEveryFile(CompactedDir());
}

TEST_F(CorruptionTest, VerificationCanBeDisabled) {
  // Flip one payload byte of the MANIFEST (well before the footer). With
  // verification on that is a checksum mismatch; with verify_checksums
  // off the footer is stripped but NOT checked, so the store either opens
  // on the mutated bytes or fails in the parser — never with a checksum
  // mismatch.
  const std::string dir = Clone(MonoDir());
  const std::string manifest = dir + "/MANIFEST";
  std::string raw;
  ASSERT_TRUE(Env::Default()->ReadFile(manifest, &raw).ok());
  raw[raw.size() - 20] ^= 0x04;
  ASSERT_TRUE(Env::Default()->WriteFile(manifest, raw).ok());

  auto verified = EntropyEngine::Open(dir);
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.status().code(), StatusCode::kCorruption);
  EXPECT_NE(verified.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << verified.status().ToString();

  SummaryOptions unverified;
  unverified.verify_checksums = false;
  auto opened = EntropyEngine::Open(dir, unverified);
  if (!opened.ok()) {
    EXPECT_EQ(opened.status().ToString().find("checksum mismatch"),
              std::string::npos)
        << "with verification off the failure must come from the parser, "
           "got: "
        << opened.status().ToString();
  }
}

/// Replaces the first line of `path`'s payload with `header` and rewrites
/// the file under a fresh, valid checksum footer.
void RewriteHeader(const std::string& path, const std::string& header) {
  auto payload = ReadChecksummedFile(Env::Default(), path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const size_t eol = payload->find('\n');
  ASSERT_NE(eol, std::string::npos) << path;
  ASSERT_TRUE(WriteChecksummedFile(Env::Default(), path,
                                   header + payload->substr(eol))
                  .ok());
}

TEST_F(CorruptionTest, OlderFormatHeadersAreRejected) {
  // Each artifact accepts exactly one format version. Older headers under
  // a VALID footer must still fail the open: checksums prove the bytes
  // are intact, the header proves they are in the one current format.
  struct Case {
    std::string pristine;
    std::string file;  // relative to the store directory
    std::string header;
  };
  const std::vector<Case> cases = {
      {MonoDir(), "MANIFEST", "ENTROPYDB_STORE_V1"},
      {MonoDir(), "MANIFEST", "ENTROPYDB_STORE_V2"},
      {ShardedDir(), "MANIFEST", "ENTROPYDB_STORE_V3"},
      {MonoDir(), "summary_0.edb", "ENTROPYDB_SUMMARY_V1"},
      {MonoDir(), "sample_0.eds", "ENTROPYDB_SAMPLE_V1"},
      {MonoDir(), "sample_0.eds", "ENTROPYDB_SAMPLE_V2"},
      {MonoDir(), "sample_0.eds", "ENTROPYDB_SAMPLE_V3"},
  };
  for (const Case& c : cases) {
    ASSERT_TRUE(EntropyEngine::Open(c.pristine).ok()) << c.pristine;
    const std::string dir = Clone(c.pristine);
    RewriteHeader(dir + "/" + c.file, c.header);
    auto opened = EntropyEngine::Open(dir);
    ASSERT_FALSE(opened.ok()) << c.file << " as " << c.header << " opened";
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << c.file << " as " << c.header << ": "
        << opened.status().ToString();
  }
}

TEST_F(CorruptionTest, OutOfDomainSampleCodeIsCorruption) {
  // A stored row code equal to its attribute's domain size, under a
  // valid footer: the bytes are intact, the content is not.
  const std::string dir = Clone(MonoDir());
  const std::string path = dir + "/sample_0.eds";
  auto payload = ReadChecksummedFile(Env::Default(), path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const size_t rows = payload->find("\nrows ");
  ASSERT_NE(rows, std::string::npos);
  const size_t row0 = payload->find('\n', rows + 1) + 1;
  const size_t code_end = payload->find(' ', row0);
  ASSERT_NE(code_end, std::string::npos);
  // A0's domain holds 6 codes (TwoPairTable).
  const std::string mutated =
      payload->substr(0, row0) + "6" + payload->substr(code_end);
  ASSERT_TRUE(WriteChecksummedFile(Env::Default(), path, mutated).ok());

  auto opened = EntropyEngine::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << opened.status().ToString();
  EXPECT_NE(opened.status().message().find("sample_0.eds"),
            std::string::npos)
      << opened.status().ToString();
}

TEST_F(CorruptionTest, BadSampleWeightIsCorruption) {
  // An expansion weight that is not finite or is below 1, under a valid
  // footer: every variant must fail the open as kCorruption.
  for (const std::string bad : {"0.5", "0", "-3", "nan", "inf", "1e999"}) {
    SCOPED_TRACE(bad);
    const std::string dir = Clone(MonoDir());
    const std::string path = dir + "/sample_0.eds";
    auto payload = ReadChecksummedFile(Env::Default(), path);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    const size_t rows = payload->find("\nrows ");
    ASSERT_NE(rows, std::string::npos);
    const size_t row0 = payload->find('\n', rows + 1) + 1;
    const size_t row0_end = payload->find('\n', row0);
    ASSERT_NE(row0_end, std::string::npos);
    // Row 0 is its codes, then its weight after the last space.
    const size_t weight = payload->rfind(' ', row0_end) + 1;
    ASSERT_GT(weight, row0);
    const std::string mutated =
        payload->substr(0, weight) + bad + payload->substr(row0_end);
    ASSERT_TRUE(WriteChecksummedFile(Env::Default(), path, mutated).ok());

    auto opened = EntropyEngine::Open(dir);
    ASSERT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
        << opened.status().ToString();
    EXPECT_NE(opened.status().message().find("sample_0.eds"),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST_F(CorruptionTest, OversizedSummaryCountsAreCorruption) {
  // Counts no payload could hold, under a valid footer: each must fail the
  // load as kCorruption naming the file and the record, before anything
  // is sized by it (not throw std::bad_alloc).
  const std::string dir = Clone(MonoDir());
  const std::string path = dir + "/summary_0.edb";
  auto payload = ReadChecksummedFile(Env::Default(), path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const std::string& p = *payload;
  // Start of the first line beginning with `prefix`, and of the next line.
  auto line_at = [&](const std::string& prefix) {
    const size_t at = p.find("\n" + prefix);
    return at == std::string::npos ? at : at + 1;
  };
  auto next_line = [&](size_t at) { return p.find('\n', at) + 1; };
  // `p` with [at, the first `stop` after at) replaced by `text`.
  auto splice = [&](size_t at, char stop, const std::string& text) {
    return p.substr(0, at) + text + p.substr(p.find(stop, at));
  };
  const size_t attrs = line_at("attrs ");
  const size_t mds = line_at("mds ");
  const size_t domains = line_at("domains ");
  ASSERT_NE(attrs, std::string::npos);
  ASSERT_NE(mds, std::string::npos);
  ASSERT_NE(domains, std::string::npos);
  const size_t attr0 = next_line(attrs);
  const std::string name0 = p.substr(attr0, p.find(' ', attr0) - attr0);
  const std::string huge = "100000000000000";
  struct Case {
    std::string record;
    std::string payload;
  };
  const std::vector<Case> cases = {
      {"", p},  // unedited: must still load
      {"attrs", splice(attrs, '\n', "attrs " + huge)},
      {"attribute size", splice(attr0, '\n', name0 + " 4000000000")},
      {"mds", splice(mds, '\n', "mds " + huge)},
      {"statistic arity", splice(next_line(mds), ' ', huge)},
      {"domain labels", splice(next_line(domains), '\n', "cat " + huge)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.record);
    ASSERT_TRUE(WriteChecksummedFile(Env::Default(), path, c.payload).ok());
    EXPECT_NO_THROW({
      auto loaded = EntropySummary::Load(path);
      if (c.record.empty()) {
        EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      } else {
        EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
            << loaded.status().ToString();
        EXPECT_NE(loaded.status().message().find("summary_0.edb"),
                  std::string::npos)
            << loaded.status().ToString();
        EXPECT_NE(loaded.status().message().find(c.record),
                  std::string::npos)
            << loaded.status().ToString();
      }
    });
  }
}

}  // namespace
}  // namespace entropydb
