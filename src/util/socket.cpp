#include "util/socket.hpp"

#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/assert.hpp"

namespace optsched::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  OPTSCHED_REQUIRE(!path.empty() && path.size() < sizeof(addr.sun_path),
                   "socket path '" + path + "' is empty or longer than " +
                       std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// connect() with EINTR handled correctly: a connect interrupted by a
/// signal keeps completing in the background (POSIX), so retrying the
/// call can fail spuriously and treating EINTR as failure misreads a
/// live peer as dead. Wait for completion with poll() and read the
/// final status from SO_ERROR. Returns 0 on success; otherwise -1 with
/// errno set to the connect failure.
int connect_fd(int fd, const sockaddr_un& addr) {
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0)
    return 0;
  if (errno != EINTR) return -1;
  pollfd pfd{fd, POLLOUT, 0};
  while (::poll(&pfd, 1, -1) < 0) {
    if (errno != EINTR) return -1;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return -1;
  if (err != 0) {
    errno = err;
    return -1;
  }
  return 0;
}

}  // namespace

UnixStream::UnixStream(UnixStream&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

UnixStream& UnixStream::operator=(UnixStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

UnixStream::~UnixStream() { close(); }

void UnixStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

UnixStream UnixStream::connect(const std::string& path) {
  const sockaddr_un addr = make_address(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  if (connect_fd(fd, addr) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect to '" + path + "'");
  }
  return UnixStream(fd);
}

void UnixStream::shutdown_io() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixStream::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void UnixStream::write_line(std::string_view line) {
  std::string frame(line);
  frame += '\n';
  write_all(frame);
}

void UnixStream::write_all(std::string_view bytes) {
  OPTSCHED_REQUIRE(valid(), "write on a closed stream");
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as an EPIPE error
    // on this call, not a process-wide SIGPIPE.
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send()");
    }
    sent += static_cast<std::size_t>(n);
  }
}

void UnixStream::write_gather(const std::vector<std::string>& frames) {
  OPTSCHED_REQUIRE(valid(), "write on a closed stream");
  constexpr std::size_t kMaxIov = 64;  // well under any IOV_MAX
  iovec iov[kMaxIov];
  std::size_t next = 0;      // first frame not yet fully queued
  std::size_t offset = 0;    // bytes of frames[next] already sent
  while (next < frames.size()) {
    std::size_t n_iov = 0;
    for (std::size_t i = next; i < frames.size() && n_iov < kMaxIov; ++i) {
      const std::string& f = frames[i];
      const std::size_t skip = (i == next) ? offset : 0;
      if (f.size() == skip) continue;  // empty (or fully-sent) frame
      iov[n_iov].iov_base = const_cast<char*>(f.data() + skip);
      iov[n_iov].iov_len = f.size() - skip;
      ++n_iov;
    }
    if (n_iov == 0) return;  // all remaining frames were empty
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = n_iov;
    const ssize_t sent = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      throw_errno("sendmsg()");
    }
    // Advance (next, offset) past `sent` bytes — a short write resumes
    // mid-frame on the next iteration.
    std::size_t remaining = static_cast<std::size_t>(sent);
    while (remaining > 0 && next < frames.size()) {
      const std::size_t left = frames[next].size() - offset;
      if (remaining < left) {
        offset += remaining;
        remaining = 0;
      } else {
        remaining -= left;
        ++next;
        offset = 0;
      }
    }
    // Skip frames that are empty so `offset` always indexes into a
    // nonempty frame on the next pass.
    while (next < frames.size() && frames[next].size() == offset) {
      ++next;
      offset = 0;
    }
  }
}

std::size_t UnixStream::write_some(std::string_view bytes) {
  OPTSCHED_REQUIRE(valid(), "write on a closed stream");
  while (true) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("send()");
  }
}

void UnixStream::consume(std::size_t n) {
  OPTSCHED_REQUIRE(n <= buffer_.size(), "consume past buffered bytes");
  buffer_.erase(0, n);
}

bool UnixStream::fill_some() {
  OPTSCHED_REQUIRE(valid(), "fill_some on a closed stream");
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv()");
    }
    if (n == 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

bool UnixStream::read_line(std::string& out, std::size_t max_bytes) {
  OPTSCHED_REQUIRE(valid(), "read_line on a closed stream");
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      OPTSCHED_REQUIRE(newline <= max_bytes,
                       "frame exceeds " + std::to_string(max_bytes) +
                           " bytes");
      out.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    // The frame cap applies to bytes buffered *before* the newline too,
    // so an endless unterminated line cannot grow the buffer unbounded.
    OPTSCHED_REQUIRE(buffer_.size() <= max_bytes,
                     "frame exceeds " + std::to_string(max_bytes) + " bytes");
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv()");
    }
    if (n == 0) {
      OPTSCHED_REQUIRE(buffer_.empty(), "connection closed mid-frame");
      return false;  // clean EOF at a frame boundary
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

UnixListener::UnixListener(UnixListener&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), path_(std::move(other.path_)) {
  other.path_.clear();
}

UnixListener& UnixListener::operator=(UnixListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    other.path_.clear();
  }
  return *this;
}

UnixListener::~UnixListener() { close(); }

void UnixListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

UnixListener UnixListener::bind(const std::string& path) {
  const sockaddr_un addr = make_address(path);

  // Replace a stale socket file from a crashed daemon — but only if
  // nothing is accepting on it, so two live daemons cannot fight over
  // one path. The probe uses its own fd: a socket that went through a
  // failed connect() is not reusable for bind(). connect_fd (not bare
  // ::connect) so a signal during the probe cannot misread a live
  // listener as stale and unlink its socket from under it.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) throw_errno("socket()");
  const bool live = connect_fd(probe, addr) == 0;
  ::close(probe);
  if (live)
    throw Error("socket '" + path + "' already has a live listener");
  ::unlink(path.c_str());

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket()");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("bind to '" + path + "'");
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(path.c_str());
    errno = saved;
    throw_errno("listen on '" + path + "'");
  }
  UnixListener listener;
  listener.fd_ = fd;
  listener.path_ = path;
  return listener;
}

std::optional<UnixStream> UnixListener::accept(int timeout_ms) {
  OPTSCHED_REQUIRE(valid(), "accept on a closed listener");
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return std::nullopt;
    throw_errno("poll()");
  }
  if (ready == 0) return std::nullopt;
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) return std::nullopt;
    throw_errno("accept()");
  }
  return UnixStream(fd);
}

}  // namespace optsched::util
