#include "serve/framing.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>

#include <poll.h>
#include <unistd.h>

namespace carbon::serve {

namespace {

/// Remaining whole milliseconds until @p deadline, clamped to >= 0.
int ms_until(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

}  // namespace

void FrameReader::append(const char* data, std::size_t n) {
  // Drop the lines already handed out once per append rather than once
  // per frame: pipelined frames cost no quadratic shifting.
  if (start_ > 0) {
    buf_.erase(0, start_);
    scanned_ -= start_;
    start_ = 0;
  }
  buf_.append(data, n);
}

FrameStatus FrameReader::next(std::string* out) {
  const char* base = buf_.data();
  const void* nl = std::memchr(base + scanned_, '\n', buf_.size() - scanned_);
  if (nl == nullptr) {
    scanned_ = buf_.size();
    // The ceiling applies to the *partial* line too: an attacker (or a
    // runaway client) streaming newline-free data is cut off after
    // max_bytes_, not buffered until memory runs out.
    return buf_.size() - start_ > max_bytes_ ? FrameStatus::kTooLarge
                                             : FrameStatus::kNeedMore;
  }
  const std::size_t end = static_cast<std::size_t>(
      static_cast<const char*>(nl) - base);
  if (end - start_ > max_bytes_) return FrameStatus::kTooLarge;
  out->assign(buf_, start_, end - start_);
  start_ = scanned_ = end + 1;
  return FrameStatus::kFrame;
}

bool write_frame(int fd, const std::string& line, double timeout_s) {
  std::string data = line;
  data += '\n';
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(
          static_cast<long>(std::ceil(timeout_s * 1000.0)));
  std::size_t off = 0;
  while (off < data.size()) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int ms = ms_until(deadline);
    if (ms == 0) return false;  // slow-client write timeout
    const int n = ::poll(&pfd, 1, ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // timeout
    if (pfd.revents & (POLLERR | POLLNVAL)) return false;
    const ssize_t wrote = ::write(fd, data.data() + off, data.size() - off);
    if (wrote < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return false;  // EPIPE / reset: client went away
    }
    off += static_cast<std::size_t>(wrote);
  }
  return true;
}

}  // namespace carbon::serve
