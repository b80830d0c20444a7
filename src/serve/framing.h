#pragma once

/// @file framing.h
/// Newline-delimited JSON framing over POSIX stream sockets.
///
/// The wire protocol of carbon_simd is deliberately primitive: one JSON
/// document per line in each direction.  What this layer adds is the
/// robustness the server needs at the socket boundary:
///
///  * FrameReader splits received bytes into frames, scanning each byte
///    once, and enforces a hard per-frame byte ceiling while the frame is
///    still arriving — an oversized request is detected (and reported as
///    kTooLarge) once max_frame_bytes are buffered, never after the client
///    finished streaming an arbitrarily large line.  It owns no fd: the
///    server's I/O loop reads and feeds it.
///  * write_frame() is a poll()-driven bounded write: a client that stops
///    reading (slow consumer, dead peer behind a full TCP window) costs at
///    most the write timeout, after which the connection is abandoned.

#include <cstddef>
#include <string>

namespace carbon::serve {

/// Outcome of one FrameReader::next() call.
enum class FrameStatus {
  kFrame,     ///< a complete line was extracted into *out
  kNeedMore,  ///< no complete line buffered yet
  kTooLarge,  ///< the current line exceeds max_frame_bytes
};

/// Incremental newline splitter with a per-frame ceiling.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes)
      : max_bytes_(max_frame_bytes) {}

  /// Append @p n received bytes.
  void append(const char* data, std::size_t n);

  /// Extract the next complete frame (without its newline) into *out.
  /// kTooLarge also fires for a partial line already over the ceiling;
  /// the frame boundary is lost then, so the caller closes.
  FrameStatus next(std::string* out);

 private:
  std::size_t max_bytes_;
  std::string buf_;
  std::size_t start_ = 0;    ///< first byte of the current (unread) line
  std::size_t scanned_ = 0;  ///< bytes of buf_ already searched for '\n'
};

/// Write all of @p line plus a terminating newline, bounded by
/// @p timeout_s of cumulative poll()+write() time.  Returns false on
/// timeout, EPIPE/reset or any other socket error.  The caller must have
/// SIGPIPE ignored (carbon_simd and the tests do).
bool write_frame(int fd, const std::string& line, double timeout_s);

}  // namespace carbon::serve
