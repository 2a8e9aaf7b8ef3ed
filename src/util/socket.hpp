// Unix-domain stream sockets with newline framing.
//
// The serving layer (server/daemon.hpp) speaks one JSON object per line
// over a local socket; this header owns the POSIX plumbing so the
// protocol and daemon code never touch a file descriptor directly:
//
//  * UnixListener — bind/listen/accept with a poll() timeout so the
//    accept loop can observe a stop flag; unlinks the socket path on
//    destruction.
//  * UnixStream — a connected byte stream with buffered read_line()
//    (newline-stripped, with a hard per-frame byte cap, so an
//    adversarial client cannot balloon daemon memory) and write_line()
//    (appends the newline, retries partial writes, never raises
//    SIGPIPE — a vanished peer is a util::Error).
//
// Local (AF_UNIX) only by design: the daemon's trust boundary is the
// socket file's filesystem permissions, and the wire format is
// newline-delimited JSON either way (DESIGN.md §7).
//
// The dist transport (DESIGN.md §11) additionally runs a binary framing
// over the same streams; for that, UnixStream exposes its read-ahead
// buffer (buffered()/consume()/fill_some()) so a caller can implement
// its own frame boundary detection, gathered writes (write_gather) so
// many small frames cost one syscall, and a non-blocking write_some() for
// a coordinator that serves every worker from one poll() loop.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace optsched::util {

/// A connected Unix-domain stream. Move-only (owns the fd).
class UnixStream {
 public:
  UnixStream() = default;
  explicit UnixStream(int fd) : fd_(fd) {}
  UnixStream(UnixStream&& other) noexcept;
  UnixStream& operator=(UnixStream&& other) noexcept;
  UnixStream(const UnixStream&) = delete;
  UnixStream& operator=(const UnixStream&) = delete;
  ~UnixStream();

  /// Connect to a listening socket at `path`; throws util::Error (with
  /// errno text) when nothing is listening.
  static UnixStream connect(const std::string& path);

  bool valid() const { return fd_ >= 0; }
  /// The underlying descriptor, for callers multiplexing with poll().
  /// Check buffered() too: a frame already buffered does not make the fd
  /// readable.
  int fd() const { return fd_; }
  void close();

  /// Half-close both directions without releasing the fd: a peer (or a
  /// thread of our own) blocked in read_line() wakes up with EOF. Safe to
  /// call from another thread while read_line() is in flight.
  void shutdown_io();

  /// Close only our receive side: our own read_line() wakes with EOF
  /// while writes still reach the peer.
  void shutdown_read();

  /// Write `line` plus a trailing '\n', retrying partial writes.
  /// Throws util::Error when the peer is gone (no SIGPIPE).
  void write_line(std::string_view line);

  /// Write raw bytes exactly as given (no newline appended), retrying
  /// partial writes. Throws util::Error when the peer is gone.
  void write_all(std::string_view bytes);

  /// Gathered write: all of `frames`, in order, in as few sendmsg()
  /// calls as iovec limits allow. Equivalent to write_all on the
  /// concatenation, but without building it. Throws util::Error when
  /// the peer is gone.
  void write_gather(const std::vector<std::string>& frames);

  /// Non-blocking write of a prefix of `bytes`: returns how many bytes
  /// the socket took, 0 when its buffer is full. Throws util::Error when
  /// the peer is gone (no SIGPIPE).
  std::size_t write_some(std::string_view bytes);

  /// Read one '\n'-terminated frame into `out` (newline stripped).
  /// Returns false on clean EOF at a frame boundary. Throws util::Error
  /// on a socket error, on EOF mid-frame, or when a frame exceeds
  /// `max_bytes` — the caller must treat that as fatal for the
  /// connection (the stream cannot resynchronize mid-line).
  bool read_line(std::string& out, std::size_t max_bytes = 1 << 20);

  // --- raw buffer access for callers implementing their own framing ---
  // (parallel/wire.hpp builds a length-prefixed binary framing on top;
  // read_line() and these primitives share one read-ahead buffer, so
  // JSON lines and binary frames can interleave on the same stream.)

  /// Bytes read ahead of the last consumed frame. A view into internal
  /// storage: invalidated by read_line/consume/fill_some.
  std::string_view buffered() const { return buffer_; }

  /// Discard exactly `n` leading buffered bytes (n <= buffered().size()).
  void consume(std::size_t n);

  /// One recv() into the read-ahead buffer (blocking). Returns false on
  /// EOF, true when at least one byte arrived. Throws util::Error on a
  /// socket error. Callers enforce their own buffered-size caps.
  bool fill_some();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes read past the last returned frame
};

/// A listening Unix-domain socket bound to a filesystem path. Move-only;
/// closes and unlinks the path on destruction.
class UnixListener {
 public:
  UnixListener() = default;
  UnixListener(UnixListener&& other) noexcept;
  UnixListener& operator=(UnixListener&& other) noexcept;
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;
  ~UnixListener();

  /// Bind and listen at `path`, replacing a stale socket file. Throws
  /// util::Error on a path that is too long for sockaddr_un, already in
  /// use by a live listener, or not bindable.
  static UnixListener bind(const std::string& path);

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  void close();  ///< close + unlink (idempotent)

  /// Wait up to `timeout_ms` for a connection; nullopt on timeout so
  /// the accept loop can poll a stop flag. Throws util::Error on a
  /// listener error.
  std::optional<UnixStream> accept(int timeout_ms);

 private:
  int fd_ = -1;
  std::string path_;
};

}  // namespace optsched::util
