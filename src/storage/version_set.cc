#include "storage/version_set.h"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace entropydb {

const char kCurrentFileName[] = "CURRENT";

namespace {

constexpr char kCurrentMagic[] = "ENTROPYDB_CURRENT_V1";

/// "v<digits>" -> id (> 0); anything else -> 0.
uint64_t ParseVersionName(const std::string& name) {
  if (name.size() < 2 || name[0] != 'v') return 0;
  uint64_t id = 0;
  for (size_t i = 1; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return 0;
    id = id * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return id;
}

/// True when `path` is listable, i.e. a directory. Env has no stat-kind
/// call; a List on a regular file fails, which is all the probe needs.
bool IsDir(Env* env, const std::string& path) {
  return env->List(path).ok();
}

/// Recursively populates `dst` from `src`, hard-linking files. Only used
/// below the version's top level, where every file is immutable once the
/// version publishes.
Status CloneTreeLinked(Env* env, const std::string& src,
                       const std::string& dst) {
  RETURN_NOT_OK(env->CreateDirs(dst));
  ASSIGN_OR_RETURN(std::vector<std::string> entries, env->List(src));
  for (const std::string& name : entries) {
    const std::string from = src + "/" + name;
    const std::string to = dst + "/" + name;
    if (IsDir(env, from)) {
      RETURN_NOT_OK(CloneTreeLinked(env, from, to));
    } else {
      RETURN_NOT_OK(env->LinkFile(from, to));
    }
  }
  return env->SyncDir(dst);
}

}  // namespace

bool VersionSet::IsVersionedRoot(const std::string& root, Env* env) {
  return env->FileExists(root + "/" + kCurrentFileName);
}

Result<std::unique_ptr<VersionSet>> VersionSet::Open(const std::string& root,
                                                     Env* env,
                                                     Options options) {
  RETURN_NOT_OK(env->CreateDirs(root));
  std::unique_ptr<VersionSet> vs(new VersionSet(root, env, options));
  std::lock_guard<std::mutex> lock(vs->mu_);
  RETURN_NOT_OK(vs->LoadLocked());
  // Sweep strands a crashed publish left behind (v<id> with id > current,
  // CURRENT.tmp, v*.tmp-* staging) and versions past retention.
  vs->GCLocked();
  return vs;
}

uint64_t VersionSet::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::vector<uint64_t> VersionSet::versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return versions_;
}

size_t VersionSet::retain() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retain_;
}

std::string VersionSet::VersionDir(uint64_t id) const {
  return root_ + "/v" + std::to_string(id);
}

std::string VersionSet::CurrentDir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return root_ + "/v" + std::to_string(current_);
}

uint64_t VersionSet::BeginVersion() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = std::max(current_, next_hint_) + 1;
  next_hint_ = id;
  return id;
}

Status VersionSet::CloneCurrentTo(uint64_t id) {
  std::string src;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (current_ == 0) {
      return Status::FailedPrecondition(
          "no current version to clone in " + root_);
    }
    if (id <= current_) {
      return Status::InvalidArgument("clone target v" + std::to_string(id) +
                                     " is not newer than current");
    }
    src = root_ + "/v" + std::to_string(current_);
  }
  const std::string dst = VersionDir(id);
  RETURN_NOT_OK(env_->RemoveAll(dst));
  RETURN_NOT_OK(env_->CreateDirs(dst));
  ASSIGN_OR_RETURN(std::vector<std::string> entries, env_->List(src));
  for (const std::string& name : entries) {
    const std::string from = src + "/" + name;
    const std::string to = dst + "/" + name;
    if (IsDir(env_, from)) {
      // Shard data: immutable after publish, so sharing bytes is safe.
      RETURN_NOT_OK(CloneTreeLinked(env_, from, to));
    } else {
      // Top-level files (MANIFEST, ingest.wal) are the ones ingest and
      // compaction mutate — a hard link here would let an append in the
      // clone rewrite history, so these are real copies.
      std::string contents;
      RETURN_NOT_OK(env_->ReadFile(from, &contents));
      RETURN_NOT_OK(env_->WriteFile(to, contents, /*sync=*/true));
    }
  }
  return env_->SyncDir(dst);
}

Status VersionSet::Publish(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id <= current_) {
    return Status::InvalidArgument("cannot publish v" + std::to_string(id) +
                                   " over current v" +
                                   std::to_string(current_));
  }
  const std::string dir = root_ + "/v" + std::to_string(id);
  if (!env_->FileExists(dir)) {
    return Status::NotFound("version directory missing: " + dir);
  }
  // Make the version's entry durable in the root before the pointer can
  // name it, then flip. The rename is the commit point.
  RETURN_NOT_OK(env_->SyncDir(root_));
  RETURN_NOT_OK(WriteCurrentLocked(id));
  current_ = id;
  if (next_hint_ < id) next_hint_ = id;
  versions_.push_back(id);
  GCLocked();
  return Status::OK();
}

Result<bool> VersionSet::Refresh() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t before = current_;
  RETURN_NOT_OK(LoadLocked());
  if (next_hint_ < current_) next_hint_ = current_;
  return before != current_;
}

void VersionSet::GCLocked() {
  const size_t retain = std::max<size_t>(1, retain_);
  const size_t start =
      versions_.size() > retain ? versions_.size() - retain : 0;
  std::vector<uint64_t> kept(versions_.begin() + start, versions_.end());
  std::vector<std::string> keep;
  keep.reserve(kept.size());
  for (uint64_t id : kept) keep.push_back("v" + std::to_string(id));
  SweepStaleEntries(env_, root_,
                    {"v", std::string(kCurrentFileName) + ".tmp"}, keep);
  versions_ = std::move(kept);
}

Status VersionSet::WriteCurrentLocked(uint64_t id) {
  std::ostringstream out;
  out << kCurrentMagic << "\n";
  out << "current " << id << "\n";
  out << "retain " << std::max<size_t>(1, retain_) << "\n";
  const std::string tmp = root_ + "/" + kCurrentFileName + ".tmp";
  const std::string dest = root_ + "/" + kCurrentFileName;
  RETURN_NOT_OK(WriteChecksummedFile(env_, tmp, out.str(), /*sync=*/true));
  RETURN_NOT_OK(env_->Rename(tmp, dest));
  return env_->SyncDir(root_);
}

Status VersionSet::LoadLocked() {
  const std::string cur_path = root_ + "/" + kCurrentFileName;
  uint64_t current = 0;
  if (env_->FileExists(cur_path)) {
    ASSIGN_OR_RETURN(
        std::string payload,
        ReadChecksummedFile(env_, cur_path, options_.verify_checksums));
    std::istringstream in(payload);
    std::string magic, token, retain_token;
    uint64_t id = 0;
    size_t retain = 0;
    if (!(in >> magic) || magic != kCurrentMagic || !(in >> token >> id) ||
        token != "current" || id == 0 || !(in >> retain_token >> retain) ||
        retain_token != "retain" || retain == 0) {
      return Status::Corruption("malformed CURRENT in " + root_);
    }
    current = id;
    retain_ = retain;
  }
  // An explicit Options override beats the persisted value; the next
  // publish writes it back.
  if (options_.retain > 0) retain_ = options_.retain;
  ASSIGN_OR_RETURN(std::vector<std::string> entries, env_->List(root_));
  std::vector<uint64_t> found;
  for (const std::string& name : entries) {
    const uint64_t id = ParseVersionName(name);
    if (id != 0 && id <= current) found.push_back(id);
  }
  std::sort(found.begin(), found.end());
  if (current != 0 && (found.empty() || found.back() != current)) {
    return Status::Corruption("CURRENT points at missing version v" +
                              std::to_string(current) + " in " + root_);
  }
  current_ = current;
  versions_ = std::move(found);
  return Status::OK();
}

}  // namespace entropydb
