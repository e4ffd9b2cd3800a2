#include "common/bytes.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>

namespace hpas {

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t got = ::read(fd, buf, sizeof buf);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    out.append(buf, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return out;
}

}  // namespace hpas
