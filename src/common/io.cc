#include "common/io.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/failpoint.h"

namespace condensa {
namespace {

Status ErrnoError(StatusCode code, const std::string& what,
                  const std::string& path) {
  return Status(code, what + " " + path + ": " + std::strerror(errno));
}

// Writes all of `data` to `fd`, honouring an already-taken failpoint
// decision: a torn decision writes only the configured prefix and then
// reports the armed status, leaving the file exactly as a crash would.
Status WriteAllWithDecision(int fd, const std::string& data,
                            const std::string& path,
                            const FailPointDecision& decision) {
  std::string_view payload = data;
  if (decision.fail) {
    if (decision.mode != FailPointMode::kTornWrite) {
      return decision.status;
    }
    std::size_t keep = decision.torn_bytes == static_cast<std::size_t>(-1)
                           ? payload.size() / 2
                           : decision.torn_bytes;
    payload = payload.substr(0, std::min(keep, payload.size()));
  }
  std::size_t written = 0;
  while (written < payload.size()) {
    ssize_t n = ::write(fd, payload.data() + written,
                        payload.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError(StatusCode::kDataLoss, "short write to", path);
    }
    written += static_cast<std::size_t>(n);
  }
  if (decision.fail) {
    return decision.status;  // torn: prefix is on disk, call still fails
  }
  return OkStatus();
}

Status SyncFd(int fd, const std::string& path) {
  CONDENSA_RETURN_IF_ERROR(FailPoint::Maybe("io.sync"));
  if (::fsync(fd) != 0) {
    return ErrnoError(StatusCode::kDataLoss, "fsync of", path);
  }
  return OkStatus();
}

// Directory portion of `path` ("" when there is none).
std::string DirName(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return "";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

// fsync on the containing directory makes the rename itself durable.
Status SyncDirectory(const std::string& dir) {
  const std::string target = dir.empty() ? "." : dir;
  int fd = ::open(target.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return ErrnoError(StatusCode::kDataLoss, "cannot open directory", target);
  }
  Status status = SyncFd(fd, target);
  ::close(fd);
  return status;
}

}  // namespace

StatusOr<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("cannot open " + path);
  }
  std::string content;
  // Size the string once for a regular file, so reading a large document
  // never holds two copies while the string grows.
  struct stat info;
  if (::fstat(fd, &info) == 0 && info.st_size > 0) {
    content.reserve(static_cast<std::size_t>(info.st_size));
  }
  char buffer[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoError(StatusCode::kDataLoss, "read error on", path);
    }
    if (n == 0) break;
    content.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return content;
}

namespace {

// Writes `content` to a temp file next to `path` and renames it over
// `path`; with `sync` the temp file and then the directory are fsync'd.
// Every failure unlinks the temp file and leaves `path` as it was.
Status ReplaceThroughTemp(const std::string& path, const std::string& content,
                          bool sync) {
  const std::string temp = path + ".tmp." + std::to_string(::getpid());
  int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return ErrnoError(StatusCode::kInvalidArgument, "cannot open", temp);
  }
  FailPointDecision decision = FailPoint::Check("io.atomic_write");
  Status status = WriteAllWithDecision(fd, content, temp, decision);
  if (status.ok() && sync) {
    status = SyncFd(fd, temp);
  }
  ::close(fd);
  if (!status.ok()) {
    // Leave the previous `path`, if any, untouched; drop the torn temp.
    ::unlink(temp.c_str());
    return status;
  }

  FailPointDecision rename_decision = FailPoint::Check("io.atomic_rename");
  if (rename_decision.fail) {
    ::unlink(temp.c_str());
    return rename_decision.status;
  }
  if (::rename(temp.c_str(), path.c_str()) != 0) {
    Status error = ErrnoError(StatusCode::kDataLoss, "cannot rename", temp);
    ::unlink(temp.c_str());
    return error;
  }
  return sync ? SyncDirectory(DirName(path)) : OkStatus();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, const std::string& content) {
  return ReplaceThroughTemp(path, content, /*sync=*/true);
}

Status ReplaceFile(const std::string& path, const std::string& content) {
  return ReplaceThroughTemp(path, content, /*sync=*/false);
}

Status CreateDirectories(const std::string& dir) {
  if (dir.empty() || dir == "/") return OkStatus();
  std::string partial;
  std::size_t start = 0;
  if (dir[0] == '/') partial = "/";
  while (start < dir.size()) {
    std::size_t slash = dir.find('/', start);
    if (slash == std::string::npos) slash = dir.size();
    if (slash > start) {
      if (!partial.empty() && partial.back() != '/') partial += '/';
      partial += dir.substr(start, slash - start);
      if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
        return ErrnoError(StatusCode::kInvalidArgument,
                          "cannot create directory", partial);
      }
    }
    start = slash + 1;
  }
  return OkStatus();
}

bool PathExists(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0;
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return ErrnoError(StatusCode::kInternal, "cannot remove", path);
  }
  return OkStatus();
}

StatusOr<std::vector<std::string>> ListDirectory(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return NotFoundError("cannot open directory " + dir);
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(handle)) {
    std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(std::move(name));
  }
  ::closedir(handle);
  return names;
}

AppendFile::AppendFile(AppendFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

AppendFile& AppendFile::operator=(AppendFile&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

AppendFile::~AppendFile() { Close(); }

StatusOr<AppendFile> AppendFile::Open(const std::string& path,
                                      bool truncate) {
  int flags = O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC;
  if (truncate) flags |= O_TRUNC;
  int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return ErrnoError(StatusCode::kInvalidArgument, "cannot open", path);
  }
  AppendFile file;
  file.fd_ = fd;
  file.path_ = path;
  return file;
}

Status AppendFile::Append(const std::string& data) {
  if (fd_ < 0) {
    return FailedPreconditionError("append to closed file " + path_);
  }
  FailPointDecision decision = FailPoint::Check("io.append");
  return WriteAllWithDecision(fd_, data, path_, decision);
}

Status AppendFile::Sync() {
  if (fd_ < 0) {
    return FailedPreconditionError("sync of closed file " + path_);
  }
  return SyncFd(fd_, path_);
}

Status AppendFile::Truncate(std::size_t size) {
  if (fd_ < 0) {
    return FailedPreconditionError("truncate of closed file " + path_);
  }
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoError(StatusCode::kDataLoss, "cannot truncate", path_);
  }
  return OkStatus();
}

void AppendFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace condensa
