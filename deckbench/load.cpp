/// @file load.cpp
/// Closed-loop load generator for carbon_simd.
///
///   deckbench_load --port P --frames FILE --connections N --seconds S
///                  [--replies FILE]
///
/// FILE holds one request frame per line, and frame k carries "id":k.
/// Each connection is one thread that sends its next frame only after the
/// previous reply has arrived.  It runs whole rounds over the frames, from
/// its own offset (connection c starts at frame c*n/N), and starts no new
/// round after S seconds: every frame is sent equally often, so latency
/// percentiles do not depend on where a run happens to stop.  A reply is
/// a failure unless it starts with {"ok":true and ends with the request's
/// id.
///
/// Prints one JSON object on stdout: requests completed and failed, the
/// throughput (each connection's completed requests over its own elapsed
/// time, summed), client latency p50/p90/mean in ms and the mean reply
/// size.  --replies writes the first reply received for each frame, one
/// line per frame in frame order (an empty line for a frame no connection
/// reached).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

using Clock = std::chrono::steady_clock;

struct ConnResult {
  std::vector<double> latency_ms;
  long failed = 0;
  double reply_bytes = 0.0;
  double elapsed_s = 0.0;  ///< connect to the end of its last round
  std::vector<std::string> first_reply;  ///< per frame; empty = not seen
  std::string error;
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read one newline-terminated line into *line (newline dropped).
bool read_line(int fd, std::string* buf, std::string* line) {
  std::size_t scanned = 0;
  char chunk[1 << 16];
  for (;;) {
    const std::size_t nl = buf->find('\n', scanned);
    if (nl != std::string::npos) {
      line->assign(*buf, 0, nl);
      buf->erase(0, nl + 1);
      return true;
    }
    scanned = buf->size();
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf->append(chunk, static_cast<std::size_t>(n));
  }
}

bool reply_ok(const std::string& reply, std::size_t id) {
  static const char kOk[] = "{\"ok\":true";
  const std::string tail = "\"id\":" + std::to_string(id) + "}";
  return reply.compare(0, sizeof kOk - 1, kOk) == 0 &&
         reply.size() >= tail.size() &&
         reply.compare(reply.size() - tail.size(), tail.size(), tail) == 0;
}

void run_connection(int port, const std::vector<std::string>& frames,
                    std::size_t offset, Clock::time_point deadline,
                    bool keep_replies, ConnResult* out) {
  if (keep_replies) out->first_reply.resize(frames.size());
  const int fd = connect_loopback(port);
  if (fd < 0) {
    out->error = "connect failed";
    ++out->failed;
    return;
  }
  std::string buf;
  std::string reply;
  const Clock::time_point start = Clock::now();
  while (Clock::now() < deadline) {
    for (std::size_t k = 0; k < frames.size(); ++k) {
      const std::size_t id = (offset + k) % frames.size();
      const Clock::time_point t0 = Clock::now();
      if (!send_all(fd, frames[id]) || !read_line(fd, &buf, &reply)) {
        out->error = "connection lost";
        ++out->failed;
        ::close(fd);
        return;
      }
      const Clock::time_point t1 = Clock::now();
      out->latency_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      out->reply_bytes += static_cast<double>(reply.size());
      if (!reply_ok(reply, id)) ++out->failed;
      if (keep_replies && out->first_reply[id].empty()) {
        out->first_reply[id] = reply;
      }
    }
  }
  out->elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  ::close(fd);
}

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

int usage() {
  std::cerr << "usage: deckbench_load --port P --frames FILE "
               "--connections N --seconds S [--replies FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  int connections = 0;
  double seconds = 0.0;
  std::string frames_path;
  std::string replies_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const char* val = argv[i + 1];
    if (arg == "--port") {
      port = std::atoi(val);
    } else if (arg == "--connections") {
      connections = std::atoi(val);
    } else if (arg == "--seconds") {
      seconds = std::atof(val);
    } else if (arg == "--frames") {
      frames_path = val;
    } else if (arg == "--replies") {
      replies_path = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || port <= 0 || connections <= 0 || !(seconds > 0.0) ||
      frames_path.empty()) {
    return usage();
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (static_cast<unsigned>(connections) > hw) {
    std::cerr << "deckbench_load: " << connections
              << " connections exceed the " << hw << " hardware threads\n";
    return 2;
  }

  std::vector<std::string> frames;
  {
    std::ifstream in(frames_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) frames.push_back(line + "\n");
    }
  }
  if (frames.empty()) {
    std::cerr << "deckbench_load: no frames in " << frames_path << "\n";
    return 2;
  }

  const bool keep_replies = !replies_path.empty();
  std::vector<ConnResult> results(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int c = 0; c < connections; ++c) {
    const std::size_t offset =
        static_cast<std::size_t>(c) * frames.size() /
        static_cast<std::size_t>(connections);
    threads.emplace_back(run_connection, port, std::cref(frames), offset,
                         deadline, keep_replies, &results[c]);
  }
  for (std::thread& t : threads) t.join();

  std::vector<double> lat;
  long failed = 0;
  double bytes = 0.0;
  double per_s = 0.0;
  for (const ConnResult& r : results) {
    lat.insert(lat.end(), r.latency_ms.begin(), r.latency_ms.end());
    failed += r.failed;
    bytes += r.reply_bytes;
    if (r.elapsed_s > 0.0) {
      per_s += static_cast<double>(r.latency_ms.size()) / r.elapsed_s;
    }
    if (!r.error.empty()) std::cerr << "deckbench_load: " << r.error << "\n";
  }
  std::sort(lat.begin(), lat.end());
  double sum = 0.0;
  for (double v : lat) sum += v;
  const double n = static_cast<double>(std::max<std::size_t>(lat.size(), 1));

  if (keep_replies) {
    std::ofstream out(replies_path);
    for (std::size_t id = 0; id < frames.size(); ++id) {
      const std::string* first = nullptr;
      for (const ConnResult& r : results) {
        if (!r.first_reply[id].empty()) {
          first = &r.first_reply[id];
          break;
        }
      }
      out << (first ? *first : std::string()) << "\n";
    }
  }

  std::printf(
      "{\"completed\": %zu, \"failed\": %ld, \"req_per_s\": %.9g, "
      "\"p50_ms\": %.9g, \"p90_ms\": %.9g, \"mean_ms\": %.9g, "
      "\"reply_kb_mean\": %.9g}\n",
      lat.size(), failed, per_s, nearest_rank(lat, 0.50),
      nearest_rank(lat, 0.90), sum / n, bytes / n / 1024.0);
  return 0;
}
