// Crash-safe file I/O primitives.
//
// Everything the durability layer writes goes through this module so the
// commit discipline lives in exactly one place:
//
//   * WriteFileAtomic — temp file in the same directory, full write, fsync,
//     rename over the target, fsync of the directory. A crash at any point
//     leaves either the old file or the new file, never a torn mix.
//     ReplaceFile is the same without the fsyncs.
//   * AppendFile — an append-only log handle whose Append() optionally
//     fsyncs before acknowledging, the primitive under the record journal.
//
// All writes are instrumented with failpoints ("io.atomic_write",
// "io.atomic_rename", "io.append", "io.sync") so tests can inject clean
// errors and torn half-writes at exact call counts (see common/failpoint.h).

#ifndef CONDENSA_COMMON_IO_H_
#define CONDENSA_COMMON_IO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace condensa {

// Reads the whole file into a string. NotFound when it cannot be opened.
StatusOr<std::string> ReadFileToString(const std::string& path);

// Atomically replaces `path` with `content` (temp + fsync + rename +
// directory fsync). On any failure the previous file, if one existed, is
// left intact; short writes report kDataLoss naming the path.
Status WriteFileAtomic(const std::string& path, const std::string& content);

// Replaces `path` with `content` through the same temp file and rename as
// WriteFileAtomic, but fsyncs nothing. A crash of the process leaves the
// old file or the new one, never a torn mix; a power loss can still lose
// the new file. For outputs that can be re-derived (a release CSV), where
// two fsyncs would cost more than the guarantee is worth.
Status ReplaceFile(const std::string& path, const std::string& content);

// Creates `dir` (and missing parents). OK if it already exists.
Status CreateDirectories(const std::string& dir);

// True when `path` names an existing file or directory.
bool PathExists(const std::string& path);

// Removes a file; OK when it does not exist.
Status RemoveFile(const std::string& path);

// Names (not paths) of the entries in `dir`, excluding "." and "..".
StatusOr<std::vector<std::string>> ListDirectory(const std::string& dir);

// Append-only file handle with explicit durability. Not copyable.
class AppendFile {
 public:
  AppendFile() = default;
  AppendFile(AppendFile&& other) noexcept;
  AppendFile& operator=(AppendFile&& other) noexcept;
  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  ~AppendFile();

  // Opens `path` for appending, creating it when missing. When `truncate`
  // is set any existing content is discarded first.
  static StatusOr<AppendFile> Open(const std::string& path,
                                   bool truncate = false);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  // Appends `data`; kDataLoss naming the path on a short write.
  Status Append(const std::string& data);

  // Flushes appended data to stable storage (fsync).
  Status Sync();

  // Truncates the file to `size` bytes (journal torn-tail repair).
  Status Truncate(std::size_t size);

  // Closes the handle; further Appends fail. Idempotent.
  void Close();

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace condensa

#endif  // CONDENSA_COMMON_IO_H_
