#include "common/env.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/crc32c.h"

namespace entropydb {

namespace fs = std::filesystem;

namespace {

std::string ErrnoMessage(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + std::strerror(errno);
}

/// stdio-backed writable file; Sync flushes the FILE* buffer then fsyncs.
class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) {
      return Status::IOError("append to closed file: " + path_);
    }
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError(ErrnoMessage("write failure:", path_));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (file_ == nullptr) {
      return Status::IOError("sync of closed file: " + path_);
    }
    if (std::fflush(file_) != 0) {
      return Status::IOError(ErrnoMessage("flush failure:", path_));
    }
    if (::fsync(::fileno(file_)) != 0) {
      return Status::IOError(ErrnoMessage("fsync failure:", path_));
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* f = file_;
    file_ = nullptr;
    // fclose flushes; it is where a full disk's delayed write error often
    // first surfaces, so its return value must not be dropped.
    if (std::fclose(f) != 0) {
      return Status::IOError(ErrnoMessage("close failure:", path_));
    }
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    std::FILE* f = std::fopen(path.c_str(), truncate ? "wb" : "ab");
    if (f == nullptr) {
      return Status::IOError(ErrnoMessage("cannot open for writing:", path));
    }
    return std::unique_ptr<WritableFile>(
        new PosixWritableFile(f, path));
  }

  Status ReadFile(const std::string& path, std::string* out) override {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::IOError(ErrnoMessage("cannot open for reading:", path));
    }
    out->clear();
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out->append(buf, got);
    }
    const bool failed = std::ferror(f) != 0;
    std::fclose(f);
    if (failed) return Status::IOError("read failure: " + path);
    return Status::OK();
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(ErrnoMessage("cannot rename " + from + " to",
                                          to));
    }
    return Status::OK();
  }

  Status PublishDir(const std::string& tmp, const std::string& dest) override {
    std::error_code ec;
    if (!fs::exists(dest, ec)) {
      RETURN_NOT_OK(Rename(tmp, dest));
      return SyncDir(Parent(dest));
    }
    // Swap the staged directory with the live one, then drop the old
    // contents (now under the tmp name). RENAME_EXCHANGE keeps `dest`
    // continuously valid: it is the old version until the syscall, the
    // new one after.
    if (::renameat2(AT_FDCWD, tmp.c_str(), AT_FDCWD, dest.c_str(),
                    RENAME_EXCHANGE) != 0) {
      return Status::IOError(
          ErrnoMessage("cannot exchange " + tmp + " with", dest));
    }
    RETURN_NOT_OK(SyncDir(Parent(dest)));
    return RemoveAll(tmp);
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return Status::IOError(ErrnoMessage("cannot open directory:", path));
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::IOError(ErrnoMessage("fsync failure on directory:",
                                          path));
    }
    return Status::OK();
  }

  Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec) {
      return Status::IOError("cannot create directory " + path + ": " +
                             ec.message());
    }
    return Status::OK();
  }

  Result<std::vector<std::string>> List(const std::string& dir) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      names.push_back(it->path().filename().string());
    }
    if (ec) {
      return Status::IOError("cannot list directory " + dir + ": " +
                             ec.message());
    }
    std::sort(names.begin(), names.end());
    return names;
  }

  bool FileExists(const std::string& path) override {
    std::error_code ec;
    return fs::exists(path, ec);
  }

  Status RemoveFile(const std::string& path) override {
    std::error_code ec;
    if (!fs::remove(path, ec) || ec) {
      return Status::IOError("cannot remove " + path +
                             (ec ? ": " + ec.message() : ""));
    }
    return Status::OK();
  }

  Status RemoveAll(const std::string& path) override {
    std::error_code ec;
    fs::remove_all(path, ec);
    if (ec) {
      return Status::IOError("cannot remove " + path + ": " + ec.message());
    }
    return Status::OK();
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    std::error_code ec;
    const uint64_t size = fs::file_size(path, ec);
    if (ec) {
      return Status::IOError("cannot stat " + path + ": " + ec.message());
    }
    return size;
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    std::error_code ec;
    fs::resize_file(path, size, ec);
    if (ec) {
      return Status::IOError("cannot truncate " + path + ": " + ec.message());
    }
    return Status::OK();
  }

  Status LinkFile(const std::string& from, const std::string& to) override {
    if (::link(from.c_str(), to.c_str()) == 0) return Status::OK();
    if (errno == EXDEV || errno == EPERM || errno == EMLINK) {
      // Filesystem cannot hard-link (cross-device, or links disallowed):
      // degrade to the base class's byte copy.
      return Env::LinkFile(from, to);
    }
    return Status::IOError(ErrnoMessage("cannot link " + from + " to", to));
  }

 private:
  static std::string Parent(const std::string& path) {
    const std::string parent = fs::path(path).parent_path().string();
    return parent.empty() ? std::string(".") : parent;
  }
};

}  // namespace

Status Env::WriteFile(const std::string& path, std::string_view data,
                      bool sync) {
  ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                   NewWritableFile(path, /*truncate=*/true));
  RETURN_NOT_OK(file->Append(data));
  if (sync) RETURN_NOT_OK(file->Sync());
  return file->Close();
}

Env* Env::Default() {
  static PosixEnv* env = new PosixEnv;
  return env;
}

Status Env::LinkFile(const std::string& from, const std::string& to) {
  std::string contents;
  RETURN_NOT_OK(ReadFile(from, &contents));
  return WriteFile(to, contents, /*sync=*/true);
}

namespace {

constexpr char kFooterTag[] = "crc32c ";
// "crc32c " + 8 hex digits + '\n'.
constexpr size_t kFooterSize = sizeof(kFooterTag) - 1 + 8 + 1;

std::string FooterFor(std::string_view payload) {
  char buf[kFooterSize + 1];
  std::snprintf(buf, sizeof(buf), "%s%08x\n", kFooterTag,
                crc32c::Value(payload));
  return std::string(buf, kFooterSize);
}

}  // namespace

Status WriteChecksummedFile(Env* env, const std::string& path,
                            std::string payload, bool sync) {
  payload += FooterFor(payload);
  return env->WriteFile(path, payload, sync);
}

Result<std::string> ReadChecksummedFile(Env* env, const std::string& path,
                                        bool verify, uint32_t* footer_crc) {
  std::string contents;
  RETURN_NOT_OK(env->ReadFile(path, &contents));
  if (contents.size() < kFooterSize ||
      contents.compare(contents.size() - kFooterSize,
                       sizeof(kFooterTag) - 1, kFooterTag) != 0 ||
      contents.back() != '\n') {
    return Status::Corruption("missing checksum footer in " + path);
  }
  const size_t footer_at = contents.size() - kFooterSize;
  const std::string hex =
      contents.substr(footer_at + sizeof(kFooterTag) - 1, 8);
  char* end = nullptr;
  const auto stored =
      static_cast<uint32_t>(std::strtoul(hex.c_str(), &end, 16));
  if (verify) {
    const std::string_view payload(contents.data(), footer_at);
    if (end != hex.c_str() + 8 || crc32c::Value(payload) != stored) {
      return Status::Corruption("checksum mismatch in " + path);
    }
  }
  if (footer_crc != nullptr) *footer_crc = stored;
  contents.resize(footer_at);
  return contents;
}

Status ReadCount(std::istringstream& in, size_t entry_bytes,
                 const std::string& path, const std::string& record,
                 size_t* count) {
  if (!(in >> *count)) {
    return Status::Corruption("bad " + record + " count in " + path);
  }
  // A string stream's get area is the rest of the payload.
  const size_t left =
      static_cast<size_t>(std::max<std::streamsize>(in.rdbuf()->in_avail(), 0));
  if (*count > left / entry_bytes) {
    return Status::Corruption(record + " count " + std::to_string(*count) +
                              " exceeds the " + std::to_string(left) +
                              " bytes left in " + path);
  }
  return Status::OK();
}

std::string StagingDirFor(const std::string& dir) {
  static std::atomic<uint64_t> seq{0};
  // Strip a trailing separator so "store/" stages as "store.tmp-...".
  std::string base = dir;
  while (base.size() > 1 && base.back() == '/') base.pop_back();
  return base + ".tmp-" + std::to_string(::getpid()) + "-" +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

size_t SweepStaleEntries(Env* env, const std::string& dir,
                         const std::vector<std::string>& prefixes,
                         const std::vector<std::string>& keep) {
  auto entries = env->List(dir);
  if (!entries.ok()) return 0;
  size_t removed = 0;
  for (const std::string& entry : *entries) {
    const bool matches = std::any_of(
        prefixes.begin(), prefixes.end(), [&](const std::string& prefix) {
          return entry.compare(0, prefix.size(), prefix) == 0;
        });
    if (!matches) continue;
    if (std::find(keep.begin(), keep.end(), entry) != keep.end()) continue;
    if (env->RemoveAll(dir + "/" + entry).ok()) ++removed;
  }
  return removed;
}

void RemoveStaleStagingDirs(Env* env, const std::string& dir) {
  std::string base = dir;
  while (base.size() > 1 && base.back() == '/') base.pop_back();
  const fs::path p(base);
  const std::string parent =
      p.parent_path().empty() ? std::string(".") : p.parent_path().string();
  const std::string name = p.filename().string();
  if (name.empty()) return;
  SweepStaleEntries(env, parent, {name + ".tmp-", name + ".old-"},
                    /*keep=*/{});
}

}  // namespace entropydb
