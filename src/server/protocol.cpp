#include "server/protocol.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace hpas::server {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw SystemError(what + ": " + std::strerror(errno));
}

/// write()/send() the whole buffer through the faultline socket edge.
/// MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE; on non-socket
/// fds (tests use pipes) send() fails with ENOTSOCK and faultline falls
/// back to write(). A send timeout (set_io_deadline) expiring mid-write
/// means the peer stopped draining: that connection is dead to us.
void write_fully(int fd, const char* data, std::size_t size,
                 faultline::Domain domain) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n =
        faultline::send_fd(domain, fd, data + done, size - done,
                           MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        throw SystemError("protocol: peer stalled, write deadline exceeded");
      throw_errno("protocol: write failed");
    }
    if (n == 0) throw SystemError("protocol: peer closed mid-write");
    done += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes. Returns false on EOF at offset 0 when
/// `eof_ok`; throws on EOF anywhere else (a torn frame is an error, not
/// a clean close). A receive timeout at offset 0 of the length prefix is
/// an idle peer and keeps waiting (`idle_ok`, the frame-boundary case);
/// any other timeout is a stalled half-frame and throws.
bool read_fully(int fd, char* data, std::size_t size, bool eof_ok,
                bool idle_ok, faultline::Domain domain) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = faultline::read(domain, fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (done == 0 && idle_ok) continue;
        throw SystemError("protocol: peer stalled mid-frame, read deadline "
                          "exceeded");
      }
      throw_errno("protocol: read failed");
    }
    if (n == 0) {
      if (done == 0 && eof_ok) return false;
      throw SystemError("protocol: peer closed mid-frame");
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw ConfigError("socket path too long (" + std::to_string(path.size()) +
                      " bytes, max " +
                      std::to_string(sizeof(addr.sun_path) - 1) + "): " +
                      path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

sockaddr_in make_localhost_addr(int port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

}  // namespace

void write_frame(int fd, std::string_view payload,
                 faultline::Domain domain) {
  if (payload.size() > kMaxFramePayload)
    throw SystemError("protocol: frame payload exceeds " +
                      std::to_string(kMaxFramePayload) + " bytes");
  std::string prefix;
  put_u32(prefix, static_cast<std::uint32_t>(payload.size()));
  // Two writes, not one coalesced buffer: the peer reads the length
  // first anyway and both land in the socket buffer back to back.
  write_fully(fd, prefix.data(), prefix.size(), domain);
  write_fully(fd, payload.data(), payload.size(), domain);
}

void write_json(int fd, const Json& doc, faultline::Domain domain) {
  write_frame(fd, doc.dump(), domain);
}

bool read_frame(int fd, std::string& payload, faultline::Domain domain) {
  char prefix[4];
  // A timeout before the first prefix byte is an idle frame boundary,
  // not a stall -- only a half-read frame trips the deadline.
  if (!read_fully(fd, prefix, sizeof prefix, /*eof_ok=*/true,
                  /*idle_ok=*/true, domain))
    return false;
  const std::uint32_t len =
      get_u32(reinterpret_cast<const unsigned char*>(prefix));
  if (len > kMaxFramePayload)
    throw SystemError("protocol: frame length " + std::to_string(len) +
                      " exceeds the " + std::to_string(kMaxFramePayload) +
                      "-byte cap");
  payload.resize(len);
  if (len > 0)
    read_fully(fd, payload.data(), len, /*eof_ok=*/false, /*idle_ok=*/false,
               domain);
  return true;
}

bool read_json(int fd, Json& doc, faultline::Domain domain) {
  std::string payload;
  if (!read_frame(fd, payload, domain)) return false;
  doc = Json::parse(payload);
  return true;
}

void set_io_deadline(int fd, double seconds) {
  if (seconds <= 0.0) return;
  timeval tv = {};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool unix_socket_alive(const std::string& path) {
  if (::access(path.c_str(), F_OK) != 0) return false;
  sockaddr_un addr;
  try {
    addr = make_unix_addr(path);
  } catch (const ConfigError&) {
    return false;  // unbindable path cannot host a live server either
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const bool alive =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
      0;
  ::close(fd);
  return alive;
}

int listen_unix(const std::string& path) {
  const sockaddr_un addr = make_unix_addr(path);
  // A stale socket file from a SIGKILLed daemon would fail the bind with
  // EADDRINUSE even though nobody is listening. Probe it: a connect that
  // succeeds means a live daemon owns this path -- refuse loudly instead
  // of yanking its socket away; a refused connect means the file is dead
  // weight and safe to unlink (the data dir, not the socket, is the
  // durable state).
  if (unix_socket_alive(path))
    throw ConfigError("server: a live server already answers on " + path +
                      " (stop it first, or pick another --socket)");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("server: socket(AF_UNIX) failed");
  set_cloexec(fd);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("server: cannot bind unix socket " + path);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("server: listen failed on " + path);
  }
  return fd;
}

int listen_tcp_localhost(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("server: socket(AF_INET) failed");
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in addr = make_localhost_addr(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("server: cannot bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("server: listen failed on port " + std::to_string(port));
  }
  return fd;
}

int connect_unix(const std::string& path) {
  const sockaddr_un addr = make_unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("client: socket(AF_UNIX) failed");
  set_cloexec(fd);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("client: cannot connect to " + path);
  }
  return fd;
}

int connect_tcp_localhost(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("client: socket(AF_INET) failed");
  set_cloexec(fd);
  const sockaddr_in addr = make_localhost_addr(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("client: cannot connect to 127.0.0.1:" +
                std::to_string(port));
  }
  return fd;
}

int local_tcp_port(int fd) {
  sockaddr_in addr = {};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("server: getsockname failed");
  return static_cast<int>(ntohs(addr.sin_port));
}

}  // namespace hpas::server
