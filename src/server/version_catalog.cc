#include "server/version_catalog.h"

#include <algorithm>

namespace entropydb {

Result<std::unique_ptr<VersionCatalog>> VersionCatalog::Open(
    const std::string& root, SummaryOptions opts, Env* env) {
  VersionSet::Options vopts;
  vopts.verify_checksums = opts.verify_checksums;
  ASSIGN_OR_RETURN(std::unique_ptr<VersionSet> versions,
                   VersionSet::Open(root, env, vopts));
  if (versions->current() == 0) {
    return Status::FailedPrecondition(
        "versioned root has no published version: " + root);
  }
  std::unique_ptr<VersionCatalog> catalog(
      new VersionCatalog(std::move(versions), opts, env));
  // Nothing is live yet, so this refresh opens the current version cold.
  RETURN_NOT_OK(catalog->Refresh().status());
  return catalog;
}

VersionCatalog::Snapshot VersionCatalog::Live() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_;
}

Result<std::shared_ptr<EntropyEngine>> VersionCatalog::OpenVersion(
    uint64_t id, const Snapshot& live) {
  const ShardedStore* share =
      live.engine != nullptr ? live.engine->sharded() : nullptr;
  return EntropyEngine::Open(version_set_->VersionDir(id), opts_, env_,
                             share);
}

Result<std::shared_ptr<EntropyEngine>> VersionCatalog::Pin(uint64_t id) {
  std::lock_guard<std::mutex> opening(open_mu_);
  Snapshot live;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id == live_.id) return live_.engine;
    const auto it = engines_.find(id);
    if (it != engines_.end()) return it->second;
    live = live_;
  }
  const std::vector<uint64_t> retained = version_set_->versions();
  if (std::find(retained.begin(), retained.end(), id) == retained.end()) {
    return Status::NotFound("version not retained: v" + std::to_string(id));
  }
  ASSIGN_OR_RETURN(std::shared_ptr<EntropyEngine> engine,
                   OpenVersion(id, live));
  std::lock_guard<std::mutex> lock(mu_);
  engines_[id] = engine;
  return engine;
}

Result<bool> VersionCatalog::Refresh() {
  std::lock_guard<std::mutex> opening(open_mu_);
  RETURN_NOT_OK(version_set_->Refresh().status());
  const uint64_t id = version_set_->current();
  const std::vector<uint64_t> retained = version_set_->versions();
  Snapshot live;
  std::shared_ptr<EntropyEngine> engine;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = engines_.begin(); it != engines_.end();) {
      if (std::find(retained.begin(), retained.end(), it->first) ==
          retained.end()) {
        // Sessions still holding the shared_ptr keep answering; the
        // catalog just stops handing the retired engine to new pins.
        it = engines_.erase(it);
      } else {
        ++it;
      }
    }
    if (id == live_.id) return false;
    live = live_;
    const auto it = engines_.find(id);
    if (it != engines_.end()) engine = it->second;
  }
  if (engine == nullptr) {
    // Only open_mu_ is held: unpinned queries keep answering from the
    // live engine while the next version opens.
    ASSIGN_OR_RETURN(engine, OpenVersion(id, live));
  }
  std::lock_guard<std::mutex> lock(mu_);
  engines_[id] = engine;
  live_ = Snapshot{id, std::move(engine)};
  return true;
}

uint64_t VersionCatalog::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.id;
}

std::vector<uint64_t> VersionCatalog::versions() const {
  return version_set_->versions();
}

}  // namespace entropydb
