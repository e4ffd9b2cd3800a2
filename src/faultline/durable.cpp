#include "faultline/durable.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "common/error.hpp"

namespace hpas::faultline {
namespace {

[[noreturn]] void throw_errno(const std::string& what, int err) {
  throw SystemError(what + ": " + std::strerror(err));
}

/// Makes a rename in `path`'s directory durable: without it a power loss
/// can forget the new directory entry even though the file data reached
/// disk.
void fsync_parent_dir(Domain d, const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot open directory " + dir, errno);
  const int rc = faultline::fsync(d, fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) throw_errno("fsync failed on directory " + dir, err);
}

}  // namespace

void write_all(Domain d, int fd, const void* data, std::size_t n,
               const std::string& path) {
  const auto* bytes = static_cast<const char*>(data);
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = faultline::write(d, fd, bytes + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed on " + path, errno);
    }
    done += static_cast<std::size_t>(w);
  }
}

void fsync_or_throw(Domain d, int fd, const std::string& path) {
  if (faultline::fsync(d, fd) != 0)
    throw_errno("fsync failed on " + path, errno);
}

AtomicFile::AtomicFile(Domain d, std::string path)
    : domain_(d), path_(std::move(path)), tmp_(path_ + ".tmp") {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("cannot open " + tmp_, errno);
}

AtomicFile::~AtomicFile() {
  if (fd_ >= 0) ::close(fd_);
  if (!renamed_) ::unlink(tmp_.c_str());
}

void AtomicFile::write(std::string_view bytes) {
  write_all(domain_, fd_, bytes.data(), bytes.size(), tmp_);
}

void AtomicFile::commit() {
  // fsync before rename: otherwise a crash after the rename can leave the
  // final name pointing at data that never reached disk.
  fsync_or_throw(domain_, fd_, tmp_);
  if (::close(std::exchange(fd_, -1)) != 0)
    throw_errno("close failed on " + tmp_, errno);
  if (faultline::rename_file(domain_, tmp_.c_str(), path_.c_str()) != 0)
    throw_errno("cannot rename " + tmp_ + " to " + path_, errno);
  renamed_ = true;
  fsync_parent_dir(domain_, path_);
}

void write_file_atomic(Domain d, const std::string& path,
                       std::string_view bytes) {
  AtomicFile file(d, path);
  file.write(bytes);
  file.commit();
}

DirLock::DirLock(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw SystemError("cannot create directory " + dir + ": " + ec.message());
  const std::string path = dir + "/.hpas.lock";
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("cannot open " + path, errno);
  if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    // flock(2) cannot say who holds it; the holder's POSIX record lock
    // (set below) can. None is visible when the holder is this process,
    // whose own record locks never conflict with it.
    struct flock probe {};
    probe.l_type = F_WRLCK;
    probe.l_whence = SEEK_SET;
    const bool known = ::fcntl(fd_, F_GETLK, &probe) == 0 &&
                       probe.l_type != F_UNLCK;
    const long holder = known ? static_cast<long>(probe.l_pid)
                              : static_cast<long>(::getpid());
    // Closing drops this process's record locks on the file, so a
    // refused in-process taker leaves its holder's pid unreported to
    // later ones; the flock itself is unaffected.
    ::close(std::exchange(fd_, -1));
    if (err != EWOULDBLOCK) throw_errno("cannot lock " + path, err);
    throw ConfigError(dir + " is in use: pid " + std::to_string(holder) +
                      " holds " + path +
                      "; one process writes a directory at a time");
  }
  // Best effort: only the pid report above depends on it.
  struct flock record {};
  record.l_type = F_WRLCK;
  record.l_whence = SEEK_SET;
  (void)::fcntl(fd_, F_SETLK, &record);
}

DirLock::~DirLock() {
  if (fd_ >= 0) ::close(fd_);
}

std::size_t remove_orphaned_tmp_files(const std::string& dir) {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".tmp") continue;
    std::error_code ignored;
    if (std::filesystem::remove(entry.path(), ignored)) ++removed;
  }
  return removed;
}

}  // namespace hpas::faultline
