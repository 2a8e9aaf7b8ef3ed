// Binary wire format (v2) for the distributed HDA* transport.
//
// BENCH_pr9 showed mode=dist is serialization-bound: every shipped state
// crossed the wire as newline-JSON, parsed and re-dumped at the
// coordinator, in ~3-state frames. Wire v2 keeps JSON for the rare,
// debuggable frames (hello/init/goal/limit/err/bye/stop) and moves the
// hot frames (batch/status/bound) to a compact binary framing that can
// coexist with JSON lines on the same stream (DESIGN.md §11):
//
//   binary frame  := 0xB2  type:u8  payload_len:varint  payload
//   JSON frame    := one JSON object + '\n'   (first byte '{', never 0xB2)
//
// so the first byte of every frame selects the framing. Varints are
// LEB128 (7 bits per byte, little-endian groups); doubles travel as
// their IEEE-754 bit pattern in little-endian byte order.
//
// Batch payload — the layout is chosen so the coordinator can relay a
// batch without decoding the states (it reads `to` and forwards the
// frame bytes verbatim; the count is available for accounting):
//
//   batch  := to:varint  count:varint  state*
//   state  := prefix:varint  suffix_len:varint  (node:varint proc:varint)*
//             f:f64le
//
// Each state's assignment sequence is delta-encoded against the previous
// state in the batch: `prefix` is the length of the shared leading run,
// the suffix is the divergent tail. Sibling exports dominate outboxes
// and share all but their last assignment, so a typical state costs a
// few bytes instead of a few hundred JSON characters.
//
//   status := flags:u8  rcvd:varint  exp:varint  open:varint  [minf:f64le]
//             (flags bit0 = idle, bit1 = minf present)
//   bound  := len:f64le
//
// Decoding is strict and bounds-checked: a truncated or corrupted frame
// is a typed util::Error, never UB — the same contract as the JSON
// protocol layer, and the fuzz tests in tests/parallel/test_wire.cpp
// hold it to that.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "parallel/transport.hpp"
#include "util/flat_set.hpp"

namespace optsched::util {
class UnixStream;
}

namespace optsched::par::wire {

inline constexpr unsigned char kMagic = 0xB2;  ///< never starts a JSON line

enum class FrameType : std::uint8_t {
  kJson = 0,    ///< not a binary frame: Frame.raw holds one JSON line
  kBatch = 1,   ///< state batch (worker->coord->worker, relayed verbatim)
  kStatus = 2,  ///< worker liveness + Mattern counters
  kBound = 3,   ///< incumbent broadcast (coordinator->worker)
};

/// One frame as read off a stream: either a JSON line (type == kJson,
/// raw = the line without its newline) or a binary frame (raw = the
/// complete frame bytes including header, payload() = the payload view).
/// Binary frames relay by writing `raw` unchanged.
struct Frame {
  FrameType type = FrameType::kJson;
  std::string raw;
  std::size_t payload_off = 0;
  std::string_view payload() const {
    return std::string_view(raw).substr(payload_off);
  }
};

// ---- primitives ----------------------------------------------------------

void put_varint(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);

/// Bounds-checked sequential reader over a payload. All getters throw
/// util::Error on truncation or overlong varints.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  std::uint64_t varint();
  double f64();
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---- hot-frame codecs ----------------------------------------------------

/// Incremental batch encoder for one destination: states are delta-
/// encoded as they are appended (no second pass at flush time), then
/// take_frame() wraps the payload in a framed byte string and resets.
class BatchEncoder {
 public:
  void reset(std::uint32_t to);
  void append(const std::vector<std::pair<dag::NodeId, machine::ProcId>>&
                  assignments,
              double f);
  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  /// Complete framed bytes (header + to + count + states); resets the
  /// encoder for the same destination.
  std::string take_frame();

 private:
  std::uint32_t to_ = 0;
  std::uint64_t count_ = 0;
  std::string states_;  ///< encoded state records
  std::vector<std::pair<dag::NodeId, machine::ProcId>> prev_;
};

struct DecodedBatch {
  std::uint32_t to = 0;
  std::vector<StateMsg> states;
};

/// Destination rank of a batch payload, without decoding the states —
/// the coordinator's relay path reads only this.
std::uint32_t batch_dest(std::string_view payload);
/// State count of a batch payload (second varint), for accounting.
std::uint64_t batch_count(std::string_view payload);
DecodedBatch decode_batch(std::string_view payload);

struct StatusMsg {
  bool idle = false;
  std::uint64_t rcvd = 0;
  std::uint64_t exp = 0;
  std::uint64_t open = 0;
  double min_f = std::numeric_limits<double>::infinity();
};

std::string encode_status(const StatusMsg& s);  ///< framed bytes
StatusMsg decode_status(std::string_view payload);

std::string encode_bound(double len);  ///< framed bytes
double decode_bound(std::string_view payload);

// ---- stream framing ------------------------------------------------------

/// Read the next frame (binary or JSON line) from `s`. Returns false on
/// clean EOF at a frame boundary; throws util::Error on a socket error,
/// EOF mid-frame, or a frame exceeding `max_bytes`.
bool read_frame(util::UnixStream& s, Frame& out, std::size_t max_bytes);

/// A complete frame is already buffered: the next read_frame() returns
/// without touching the socket. poll()-driven callers must drain these
/// before sleeping on the fd, or a buffered frame sits stranded behind a
/// quiet socket.
bool has_buffered_frame(const util::UnixStream& s);

// ---- send-side duplicate filter ------------------------------------------

/// Bounded remembered-set of signatures recently shipped to one
/// destination. fresh() answers "have I sent this signature before?"
/// and records it; at capacity the set resets wholesale (generational
/// forgetting) so memory stays bounded. Both error directions are safe:
/// a suppressed resend is correct because the owner's SEEN check is
/// authoritative (it drops duplicates regardless), and a post-reset
/// re-send is merely redundant traffic. See DESIGN.md §11.3.
class SendFilter {
 public:
  explicit SendFilter(std::size_t capacity = 1u << 14)
      : capacity_(capacity < 16 ? 16 : capacity) {}

  /// True when `sig` has not been recorded since the last reset (and is
  /// now recorded).
  bool fresh(const util::Key128& sig) {
    if (set_.size() >= capacity_) set_.clear();
    return set_.insert(sig);
  }

  std::size_t size() const noexcept { return set_.size(); }
  std::size_t memory_bytes() const noexcept { return set_.memory_bytes(); }

 private:
  std::size_t capacity_;
  util::FlatSet128 set_;
};

}  // namespace optsched::par::wire
