// Durable file writes: the one write path behind every journal, spool
// file, sweep output, dataset shard and manifest, and CLI output file.
//
// write_file_atomic (and AtomicFile, its streaming form) publishes a
// whole file so that a crash at any point leaves either the old file or
// the complete new one, never a torn or empty target:
//
//   open <path>.tmp (O_TRUNC) -> write_all -> fsync -> close
//     -> rename over <path> -> fsync the parent directory
//
// Each step goes through the faultline wrappers of the caller's domain,
// so a schedule can fail, tear or crash it at any point. On any failure
// the temporary is unlinked before SystemError propagates. Journals use
// kJournal and the server spool kCache (both in the default crash mask);
// sweep, dataset and CLI outputs use kOutput, which is outside it.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "faultline/faultline.hpp"

namespace hpas::faultline {

/// Writes all `n` bytes through the `d` edge, retrying short writes and
/// EINTR. Throws SystemError naming `path` on any other failure.
void write_all(Domain d, int fd, const void* data, std::size_t n,
               const std::string& path);

/// fsync through the `d` edge; throws SystemError naming `path` when it
/// fails.
void fsync_or_throw(Domain d, int fd, const std::string& path);

/// A file built up in `<path>.tmp` and published at `path` by commit().
/// Destroying it uncommitted (an exception, an abandoned write) closes
/// and unlinks the temporary, leaving any old `path` untouched.
class AtomicFile {
 public:
  AtomicFile(Domain d, std::string path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  void write(std::string_view bytes);
  /// fsync, close, rename over `path`, fsync the parent directory.
  void commit();

 private:
  Domain domain_;
  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  bool renamed_ = false;
};

/// Publishes `bytes` at `path` through one AtomicFile.
void write_file_atomic(Domain d, const std::string& path,
                       std::string_view bytes);

/// One writer per durable directory. Taking a DirLock creates `dir` and
/// an empty `<dir>/.hpas.lock` if missing and holds an exclusive,
/// non-blocking flock(2) on it until destruction (for the CLI verbs, the
/// life of the process). A second taker -- another process, or another
/// DirLock in this one -- is refused with ConfigError naming the
/// holder's pid, before it reads, rewrites or sweeps anything in `dir`.
/// The file stays empty, so two output directories still `diff -r`
/// equal. Serve, `sweep -o`, search and dataset take one on their
/// directory.
class DirLock {
 public:
  explicit DirLock(const std::string& dir);
  ~DirLock();

  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;

 private:
  int fd_ = -1;
};

/// Removes the `*.tmp` siblings that a crash in the middle of an atomic
/// write leaves in `dir` (never valid outputs) and returns how many it
/// removed. Only safe while nothing is writing into `dir`, so callers
/// sweep once before their first write: sweep --resume and cache open.
std::size_t remove_orphaned_tmp_files(const std::string& dir);

}  // namespace hpas::faultline
