/// Loopback integration tests of the concurrent simulation service
/// (src/serve): an in-process Server driven over real sockets through the
/// same code paths carbon_simd uses.  Covers the whole robustness
/// contract — good decks, parse errors, solve failures, injected hangs
/// cut by deadlines, admission-control overload shedding, oversized-frame
/// rejection, mid-solve client disconnects cancelling the in-flight
/// solve, a half-closed client that must still get its reply, idle and
/// busy neighbours that must not starve a client, in-order pipelining, and
/// the graceful drain flushing every admitted response — plus unit tests of
/// the frame splitter.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/report.h"
#include "device/alpha_power.h"
#include "device/faulty.h"
#include "device/linear_fet.h"
#include "serve/framing.h"
#include "serve/queue.h"
#include "serve/server.h"

namespace serve = carbon::serve;
namespace sp = carbon::spice;
namespace dev = carbon::device;
using carbon::core::Json;

namespace {

/// Registry with the builtin devices plus deterministic fault models:
/// "hangfet" stalls per eval (deadline tests), "nanfet" goes NaN
/// (solve-failure isolation tests).
sp::ModelRegistry test_registry(double stall_s = 20e-3) {
  sp::ModelRegistry reg;
  auto nfet =
      std::make_shared<dev::AlphaPowerModel>(dev::make_fig2_saturating_params());
  reg["nfet"] = nfet;
  reg["pfet"] = std::make_shared<dev::PTypeMirror>(nfet);
  dev::FaultSpec stall;
  stall.kind = dev::FaultKind::kStall;
  stall.stall_s = stall_s;
  reg["hangfet"] = dev::with_fault(nfet, stall);
  dev::FaultSpec nan;
  nan.kind = dev::FaultKind::kNanEval;
  reg["nanfet"] = dev::with_fault(nfet, nan);
  return reg;
}

const char kGoodDeck[] =
    "v1 in 0 1\nr1 in out 1k\nr2 out 0 1k\n"
    ".op\n.probe none\n.measure op vout value v(out)\n.end\n";

/// A transient on a stalling FET: each accepted step costs one stalled
/// eval, so the run cannot finish inside any sane deadline.
const char kHangDeck[] =
    "v1 d 0 1\n"
    "v2 g 0 pulse(0 1 1n 1n 1n 5n 10n)\n"
    "m1 d g 0 hangfet\n"
    "c1 d 0 1p\n"
    ".tran 0.1n 1000n\n.probe none\n.end\n";

const char kNanDeck[] = "v1 d 0 1\nv2 g 0 1\nm1 d g 0 nanfet\n.op\n.end\n";

/// Unique, short (sun_path-safe) socket path per test.
std::string test_socket_path() {
  static int counter = 0;
  return "/tmp/carbon_serve_t" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// Minimal blocking line client over a Unix-domain socket.
class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    connected_ = ::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~Client() { close(); }

  bool connected() const { return connected_; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool send_line(const std::string& line) {
    return serve::write_frame(fd_, line, 5.0);
  }

  /// Stop sending but keep reading (what `nc -N` does after its input).
  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Read one newline-terminated frame within @p timeout_s; nullopt on
  /// EOF / timeout / error.
  std::optional<std::string> recv_line(double timeout_s = 15.0) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<long>(timeout_s * 1000));
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return out;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return std::nullopt;
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int n = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return std::nullopt;
      }
      char chunk[4096];
      const ssize_t got = ::read(fd_, chunk, sizeof chunk);
      if (got == 0) eof_ = true;
      if (got <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// True once a read saw the server close the connection.
  bool eof() const { return eof_; }

  /// send + recv + parse.  A failed send still attempts the read: a
  /// too_large rejection is written and closed server-side, which can EPIPE
  /// a concurrent send while the document sits readable in the socket
  /// buffer.
  std::optional<Json> rpc(const Json& req, double timeout_s = 15.0) {
    send_line(req.dump());
    const auto line = recv_line(timeout_s);
    if (!line) return std::nullopt;
    return Json::parse(*line);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  bool eof_ = false;
  std::string buf_;
};

Json run_request(const std::string& deck, double deadline_ms = 0.0) {
  auto req = Json::object();
  req.set("type", "run");
  req.set("deck", deck);
  if (deadline_ms > 0.0) req.set("deadline_ms", deadline_ms);
  return req;
}

Json health_request() {
  auto req = Json::object();
  req.set("type", "health");
  return req;
}

/// Poll @p cond every 10 ms for up to 10 s; true once it holds.
template <typename Cond>
bool eventually(Cond cond) {
  for (int i = 0; i < 1000; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

serve::ServerConfig base_config(const std::string& path) {
  serve::ServerConfig cfg;
  cfg.unix_path = path;
  cfg.workers = 2;
  cfg.queue_capacity = 8;
  cfg.default_deadline_s = 20.0;
  cfg.write_timeout_s = 5.0;
  cfg.drain_budget_s = 2.0;
  cfg.registry = test_registry();
  cfg.session.emit_tables = false;  // keep responses small
  return cfg;
}

struct SigpipeGuard {
  SigpipeGuard() { std::signal(SIGPIPE, SIG_IGN); }
} const sigpipe_guard;  // write_frame contract: SIGPIPE must be ignored

}  // namespace

// ---------------------------------------------------------------------------

TEST(BoundedQueue, AdmissionControlAndDrain) {
  serve::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: shed
  EXPECT_EQ(q.depth(), 2u);
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed: shed
  // Admitted items still drain after close...
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  // ...then poppers see end-of-queue.
  EXPECT_FALSE(q.pop().has_value());
}

TEST(FrameReader, SplitsOneFrameFedInAnyChunking) {
  // Longer than one 4 KiB chunk, so both feeds split it.
  const std::string frame = run_request(std::string(9000, '*')).dump();
  const std::string wire = frame + "\n";
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4096}}) {
    serve::FrameReader reader(1u << 20);
    std::string out;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      EXPECT_EQ(reader.next(&out), serve::FrameStatus::kNeedMore);
      reader.append(wire.data() + off, std::min(chunk, wire.size() - off));
    }
    ASSERT_EQ(reader.next(&out), serve::FrameStatus::kFrame) << chunk;
    EXPECT_EQ(out, frame);
    EXPECT_EQ(reader.next(&out), serve::FrameStatus::kNeedMore);
  }
}

TEST(FrameReader, SplitsPipelinedFramesInOneChunk) {
  serve::FrameReader reader(1u << 20);
  const std::string wire = "{\"type\":\"health\"}\n\nnot json\n{\"id\":";
  reader.append(wire.data(), wire.size());
  std::string out;
  ASSERT_EQ(reader.next(&out), serve::FrameStatus::kFrame);
  EXPECT_EQ(out, "{\"type\":\"health\"}");
  ASSERT_EQ(reader.next(&out), serve::FrameStatus::kFrame);
  EXPECT_EQ(out, "");
  ASSERT_EQ(reader.next(&out), serve::FrameStatus::kFrame);
  EXPECT_EQ(out, "not json");
  EXPECT_EQ(reader.next(&out), serve::FrameStatus::kNeedMore);
  // The partial tail completes with the next chunk.
  reader.append("4}\n", 3);
  ASSERT_EQ(reader.next(&out), serve::FrameStatus::kFrame);
  EXPECT_EQ(out, "{\"id\":4}");
  EXPECT_EQ(reader.next(&out), serve::FrameStatus::kNeedMore);
}

TEST(FrameReader, PartialLineOverCeilingIsTooLarge) {
  serve::FrameReader reader(16);
  const std::string at_ceiling(16, 'x');
  std::string out;
  reader.append(at_ceiling.data(), at_ceiling.size());
  EXPECT_EQ(reader.next(&out), serve::FrameStatus::kNeedMore);
  // One more byte and still no newline: rejected before the line ends.
  reader.append("x", 1);
  EXPECT_EQ(reader.next(&out), serve::FrameStatus::kTooLarge);

  // A complete line over the ceiling is rejected the same way.
  serve::FrameReader whole(16);
  const std::string line = std::string(17, 'y') + "\n";
  whole.append(line.data(), line.size());
  EXPECT_EQ(whole.next(&out), serve::FrameStatus::kTooLarge);
}

TEST(Serve, RunRequestAndKeepAlive) {
  const std::string path = test_socket_path();
  serve::ServerConfig cfg = base_config(path);
  // One worker: a connection's requests may go to any worker, and the
  // cache hit below needs both runs on one session.
  cfg.workers = 1;
  serve::Server server(std::move(cfg));
  server.start();

  Client c(path);
  ASSERT_TRUE(c.connected());
  auto req = run_request(kGoodDeck);
  req.set("id", 7);
  const auto doc = c.rpc(req);
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE((*doc)["ok"].as_bool()) << doc->dump(1);
  EXPECT_EQ((*doc)["id"].as_int(), 7);
  EXPECT_NEAR((*doc)["steps"].at(0)["measures"]["vout"].as_double(), 0.5,
              1e-9);

  // Keep-alive: a second request on the same connection.
  const auto again = c.rpc(run_request(kGoodDeck));
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE((*again)["ok"].as_bool());
  // Second run of the same topology on the single worker: a session-cache
  // hit, visible in the response's session block.
  EXPECT_GE((*again)["session"]["cache_hits"].as_int(), 1);

  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().requests_ok.load(), 2);
}

TEST(Serve, BadDecksAreIsolatedDocuments) {
  const std::string path = test_socket_path();
  serve::Server server(base_config(path));
  server.start();
  {
    Client c(path);
    ASSERT_TRUE(c.connected());

    const auto parse = c.rpc(run_request("not a deck card\n.end\n"));
    ASSERT_TRUE(parse.has_value());
    EXPECT_FALSE((*parse)["ok"].as_bool());
    EXPECT_EQ((*parse)["error"]["type"].as_string(), "parse");

    const auto nan = c.rpc(run_request(kNanDeck));
    ASSERT_TRUE(nan.has_value());
    EXPECT_FALSE((*nan)["ok"].as_bool());
    EXPECT_EQ((*nan)["error"]["type"].as_string(), "solve_failure");

    // The connection — and the server — survive both.
    const auto good = c.rpc(run_request(kGoodDeck));
    ASSERT_TRUE(good.has_value());
    EXPECT_TRUE((*good)["ok"].as_bool());
  }
  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().parse_errors.load(), 1);
  EXPECT_EQ(server.stats().solve_failures.load(), 1);
}

TEST(Serve, MalformedRequestsGetBadRequestDocuments) {
  const std::string path = test_socket_path();
  serve::Server server(base_config(path));
  server.start();
  {
    Client c(path);
    ASSERT_TRUE(c.connected());
    ASSERT_TRUE(c.send_line("this is not json"));
    auto doc = Json::parse(c.recv_line().value());
    EXPECT_EQ(doc["error"]["type"].as_string(), "bad_request");

    auto req = Json::object();
    req.set("type", "frobnicate");
    doc = c.rpc(req).value();
    EXPECT_EQ(doc["error"]["type"].as_string(), "bad_request");

    auto norun = Json::object();
    norun.set("type", "run");  // no deck
    doc = c.rpc(norun).value();
    EXPECT_EQ(doc["error"]["type"].as_string(), "bad_request");
  }
  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().bad_requests.load(), 3);
}

TEST(Serve, OversizedFrameIsRejectedAndConnectionClosed) {
  const std::string path = test_socket_path();
  serve::ServerConfig cfg = base_config(path);
  cfg.max_request_bytes = 512;
  serve::Server server(std::move(cfg));
  server.start();
  {
    Client c(path);
    ASSERT_TRUE(c.connected());
    const std::string big(4096, 'x');
    ASSERT_TRUE(c.send_line(big));
    const auto doc = Json::parse(c.recv_line().value());
    EXPECT_EQ(doc["error"]["type"].as_string(), "too_large");
    // The frame boundary is unrecoverable: the server closes.
    EXPECT_FALSE(c.recv_line(2.0).has_value());
  }
  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().rejected_too_large.load(), 1);
}

TEST(Serve, DeadlineCutsHungSolve) {
  const std::string path = test_socket_path();
  serve::Server server(base_config(path));
  server.start();
  {
    Client c(path);
    ASSERT_TRUE(c.connected());
    const auto t0 = std::chrono::steady_clock::now();
    const auto doc = c.rpc(run_request(kHangDeck, 400.0));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE((*doc)["ok"].as_bool());
    EXPECT_EQ((*doc)["error"]["type"].as_string(), "timeout") << doc->dump(1);
    // Bounded: the 0.4 s budget, the in-flight stalled eval, and slack.
    EXPECT_LT(elapsed, 5.0);
  }
  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().timeouts.load(), 1);
}

TEST(Serve, OverloadIsShedWithStructuredDocument) {
  const std::string path = test_socket_path();
  serve::ServerConfig cfg = base_config(path);
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  serve::Server server(std::move(cfg));
  server.start();

  // A occupies the single worker with a hung solve...
  Client a(path);
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(a.send_line(run_request(kHangDeck, 1500.0).dump()));
  ASSERT_TRUE(eventually([&] { return server.stats().in_flight.load() == 1; }));
  // ...B's run takes the single queue slot...
  Client b(path);
  ASSERT_TRUE(b.connected());
  ASSERT_TRUE(b.send_line(run_request(kGoodDeck).dump()));
  ASSERT_TRUE(eventually([&] { return server.queue_depth() == 1; }));
  // ...so C's run is shed with an overload document that echoes its id.
  Client c(path);
  ASSERT_TRUE(c.connected());
  auto shed_req = run_request(kGoodDeck);
  shed_req.set("id", 3);
  const auto shed = c.rpc(shed_req, 5.0);
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ((*shed)["error"]["type"].as_string(), "overload");
  EXPECT_EQ((*shed)["id"].as_int(), 3);

  // Admitted work always completes: A's timeout document, then B's run.
  const auto a_doc = a.recv_line();
  ASSERT_TRUE(a_doc.has_value());
  EXPECT_EQ(Json::parse(*a_doc)["error"]["type"].as_string(), "timeout");
  const auto b_doc = b.recv_line();
  ASSERT_TRUE(b_doc.has_value());
  EXPECT_TRUE(Json::parse(*b_doc)["ok"].as_bool());
  // Shedding is per request: C's connection stays open and its next run
  // is served.
  const auto c_doc = c.rpc(run_request(kGoodDeck));
  ASSERT_TRUE(c_doc.has_value());
  EXPECT_TRUE((*c_doc)["ok"].as_bool());

  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().rejected_overload.load(), 1);
}

TEST(Serve, DisconnectCancelsInFlightSolve) {
  const std::string path = test_socket_path();
  serve::Server server(base_config(path));
  server.start();
  {
    Client a(path);
    ASSERT_TRUE(a.connected());
    // A very generous deadline: only the disconnect can stop this solve.
    ASSERT_TRUE(a.send_line(run_request(kHangDeck, 60000.0).dump()));
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    a.close();  // client gives up mid-solve

    // The I/O thread sees the hang-up and cancels the solve, so the worker
    // frees up well before the 60 s deadline.
    Client b(path);
    ASSERT_TRUE(b.connected());
    bool cleared = false;
    for (int i = 0; i < 100 && !cleared; ++i) {
      const auto h = b.rpc(health_request());
      ASSERT_TRUE(h.has_value());
      cleared = (*h)["server"]["in_flight"].as_int() == 0 &&
                (*h)["server"]["disconnects"].as_int() >= 1;
      if (!cleared) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    EXPECT_TRUE(cleared) << "in-flight solve not cancelled on disconnect";
  }
  server.request_drain();
  server.wait();
  EXPECT_GE(server.stats().disconnects.load(), 1);
}

TEST(Serve, HalfClosedClientGetsItsReply) {
  const std::string path = test_socket_path();
  serve::Server server(base_config(path));
  server.start();
  {
    Client c(path);
    ASSERT_TRUE(c.connected());
    ASSERT_TRUE(c.send_line(run_request(kHangDeck, 500.0).dump()));
    // A half-close is no hang-up: the run goes on to its deadline and the
    // document comes back on the still-open reading side.
    c.shutdown_write();
    const auto line = c.recv_line();
    ASSERT_TRUE(line.has_value()) << "half-closed client got no reply";
    const Json doc = Json::parse(*line);
    EXPECT_EQ(doc["error"]["type"].as_string(), "timeout") << doc.dump(1);
    // Then the server closes: the client sent nothing more.
    EXPECT_FALSE(c.recv_line(5.0).has_value());
    EXPECT_TRUE(c.eof());
  }
  server.request_drain();
  server.wait();
  EXPECT_EQ(server.stats().timeouts.load(), 1);
  EXPECT_EQ(server.stats().disconnects.load(), 0);
}

TEST(Serve, GracefulDrainFlushesAdmittedWork) {
  const std::string path = test_socket_path();
  serve::ServerConfig cfg = base_config(path);
  cfg.drain_budget_s = 0.8;
  serve::Server server(std::move(cfg));
  server.start();

  // In-flight hung work at drain time...
  Client a(path);
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(a.send_line(run_request(kHangDeck, 60000.0).dump()));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto t0 = std::chrono::steady_clock::now();
  server.request_drain();

  // ...is cancelled at the drain budget and still gets its document.
  const auto doc = a.recv_line(10.0);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(Json::parse(*doc)["error"]["type"].as_string(), "timeout");

  server.wait();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Budget + one in-flight stalled eval + join slack.
  EXPECT_LT(elapsed, 6.0);

  // Drained server accepts nothing new.
  Client late(path);
  EXPECT_FALSE(late.connected());
}

TEST(Serve, DrainClosesIdleConnections) {
  const std::string path = test_socket_path();
  serve::ServerConfig cfg = base_config(path);
  cfg.drain_budget_s = 0.5;
  serve::Server server(std::move(cfg));
  server.start();

  std::vector<std::unique_ptr<Client>> idle;
  for (int i = 0; i < 3; ++i) {
    idle.push_back(std::make_unique<Client>(path));
    ASSERT_TRUE(idle.back()->connected());
  }
  Client hung(path);
  ASSERT_TRUE(hung.connected());
  ASSERT_TRUE(hung.send_line(run_request(kHangDeck, 60000.0).dump()));
  ASSERT_TRUE(eventually([&] {
    return server.stats().accepted.load() == 4 &&
           server.stats().in_flight.load() == 1;
  }));

  server.request_drain();
  // Idle connections are closed at once, with nothing written...
  for (auto& c : idle) {
    EXPECT_FALSE(c->recv_line(10.0).has_value());
    EXPECT_TRUE(c->eof());
  }
  // ...the in-flight hung run is cut at the drain budget and still gets
  // its document...
  const auto doc = hung.recv_line(10.0);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(Json::parse(*doc)["error"]["type"].as_string(), "timeout");
  // ...and the drain completes.
  server.wait();
  EXPECT_EQ(server.stats().timeouts.load(), 1);
}

TEST(Serve, IdleConnectionsDoNotStarveService) {
  const std::string path = test_socket_path();
  serve::Server server(base_config(path));  // two workers
  server.start();
  {
    // Twice as many idle connections as workers...
    std::vector<std::unique_ptr<Client>> idle;
    for (int i = 0; i < 4; ++i) {
      idle.push_back(std::make_unique<Client>(path));
      ASSERT_TRUE(idle.back()->connected());
    }
    // ...and a fifth connection is still served.
    Client c(path);
    ASSERT_TRUE(c.connected());
    const auto h = c.rpc(health_request(), 5.0);
    ASSERT_TRUE(h.has_value()) << "health starved by idle connections";
    EXPECT_TRUE((*h)["ok"].as_bool());
    const auto doc = c.rpc(run_request(kGoodDeck), 5.0);
    ASSERT_TRUE(doc.has_value()) << "run starved by idle connections";
    EXPECT_TRUE((*doc)["ok"].as_bool());
  }
  server.request_drain();
  server.wait();
}

TEST(Serve, ClosedLoopNeighbourDoesNotStarveAnother) {
  const std::string path = test_socket_path();
  serve::ServerConfig cfg = base_config(path);
  cfg.workers = 1;
  serve::Server server(std::move(cfg));
  server.start();
  {
    Client a(path);
    ASSERT_TRUE(a.connected());
    ASSERT_TRUE(a.rpc(run_request(kGoodDeck)).has_value());
    // A sends its next run as soon as each reply lands, until B is served
    // (or 20 s pass).
    std::atomic<bool> b_done{false};
    std::thread neighbour([&] {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (!b_done.load() && std::chrono::steady_clock::now() < until) {
        if (!a.rpc(run_request(kGoodDeck)).has_value()) break;
      }
    });
    Client b(path);
    const auto doc = b.rpc(run_request(kGoodDeck), 10.0);
    b_done.store(true);
    neighbour.join();
    ASSERT_TRUE(doc.has_value()) << "B starved by A's closed loop";
    EXPECT_TRUE((*doc)["ok"].as_bool());
  }
  server.request_drain();
  server.wait();
}

TEST(Serve, PipelinedFramesAnswerInOrder) {
  const std::string path = test_socket_path();
  serve::Server server(base_config(path));
  server.start();
  {
    Client c(path);
    ASSERT_TRUE(c.connected());
    auto run1 = run_request(kGoodDeck);
    run1.set("id", 1);
    auto health = health_request();
    health.set("id", 2);
    auto run4 = run_request(kGoodDeck);
    run4.set("id", 4);
    // Four frames in one write: replies come back in request order.
    ASSERT_TRUE(c.send_line(run1.dump() + "\n" + health.dump() +
                            "\nnot json\n" + run4.dump()));

    const Json d1 = Json::parse(c.recv_line().value());
    EXPECT_EQ(d1["id"].as_int(), 1);
    EXPECT_TRUE(d1["ok"].as_bool()) << d1.dump();
    EXPECT_NEAR(d1["steps"].at(0)["measures"]["vout"].as_double(), 0.5, 1e-9);
    const Json d2 = Json::parse(c.recv_line().value());
    EXPECT_EQ(d2["id"].as_int(), 2);
    EXPECT_EQ(d2["type"].as_string(), "health");
    const Json d3 = Json::parse(c.recv_line().value());
    EXPECT_EQ(d3["error"]["type"].as_string(), "bad_request");
    EXPECT_EQ(d3.find("id"), nullptr);
    const Json d4 = Json::parse(c.recv_line().value());
    EXPECT_EQ(d4["id"].as_int(), 4);
    EXPECT_TRUE(d4["ok"].as_bool()) << d4.dump();
  }
  server.request_drain();
  server.wait();
}

TEST(Serve, HealthReportsCountersAndCacheStats) {
  const std::string path = test_socket_path();
  serve::ServerConfig cfg = base_config(path);
  cfg.workers = 1;  // both runs on one session: one miss, then a hit
  serve::Server server(std::move(cfg));
  server.start();
  {
    Client c(path);
    ASSERT_TRUE(c.connected());
    ASSERT_TRUE(c.rpc(run_request(kGoodDeck)).has_value());
    ASSERT_TRUE(c.rpc(run_request(kGoodDeck)).has_value());
    auto req = Json::object();
    req.set("type", "health");
    req.set("id", "h1");
    const auto h = c.rpc(req);
    ASSERT_TRUE(h.has_value());
    EXPECT_TRUE((*h)["ok"].as_bool());
    EXPECT_EQ((*h)["id"].as_string(), "h1");
    const Json& srv = (*h)["server"];
    EXPECT_EQ(srv["requests"]["run"].as_int(), 2);
    EXPECT_EQ(srv["requests"]["ok"].as_int(), 2);
    EXPECT_EQ(srv["in_flight"].as_int(), 0);
    EXPECT_EQ(srv["queue_capacity"].as_int(), 8);
    EXPECT_FALSE(srv["draining"].as_bool());
    // Both runs on the single worker: 1 miss then 1 hit.
    EXPECT_EQ(srv["session_cache"]["misses"].as_int(), 1);
    EXPECT_GE(srv["session_cache"]["hits"].as_int(), 1);
  }
  server.request_drain();
  server.wait();
}

/// The acceptance-criteria fault mix, concurrently: good decks, parse
/// errors, solve failures, injected hangs under tight deadlines, an
/// oversized request and a mid-request disconnect, from several client
/// threads at once — every completed request gets exactly one document,
/// the server never crashes, and the drain exits cleanly.
TEST(Serve, ConcurrentFaultMixLoad) {
  const std::string path = test_socket_path();
  serve::ServerConfig cfg = base_config(path);
  cfg.workers = 4;
  cfg.queue_capacity = 4;
  cfg.registry = test_registry(5e-3);  // faster stalls: tighter test
  serve::Server server(std::move(cfg));
  server.start();

  std::atomic<int> docs{0}, transport_failures{0};
  auto client_thread = [&](int seed) {
    for (int i = 0; i < 6; ++i) {
      Client c(path);
      if (!c.connected()) continue;  // a full listen backlog is fine
      const int kind = (seed + i) % 5;
      std::optional<Json> doc;
      switch (kind) {
        case 0: doc = c.rpc(run_request(kGoodDeck)); break;
        case 1: doc = c.rpc(run_request("bogus\n.end\n")); break;
        case 2: doc = c.rpc(run_request(kNanDeck)); break;
        case 3: doc = c.rpc(run_request(kHangDeck, 120.0)); break;
        case 4:
          // Mid-request disconnect: send and leave without reading.
          c.send_line(run_request(kHangDeck, 2000.0).dump());
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          c.close();
          continue;
      }
      if (!doc.has_value()) {
        // An overload rejection arrives as a document too; only transport
        // breakage counts as failure.
        ++transport_failures;
        continue;
      }
      ++docs;
      EXPECT_TRUE(doc->find("ok") != nullptr) << doc->dump(1);
    }
  };
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) clients.emplace_back(client_thread, t);
  for (auto& t : clients) t.join();

  EXPECT_GT(docs.load(), 0);
  EXPECT_EQ(transport_failures.load(), 0);

  server.request_drain();
  server.wait();
  const serve::ServerStats& s = server.stats();
  // Conservation: every run request was accounted to exactly one outcome.
  EXPECT_EQ(s.requests_run.load(),
            s.requests_ok.load() + s.parse_errors.load() +
                s.solve_failures.load() + s.timeouts.load() +
                s.cancelled.load() + s.internal_errors.load());
  EXPECT_EQ(s.in_flight.load(), 0);
}

TEST(Serve, TcpListenerServesEphemeralPort) {
  serve::ServerConfig cfg = base_config("");
  cfg.unix_path.clear();
  cfg.tcp_port = 0;
  serve::Server server(std::move(cfg));
  server.start();
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof addr),
            0);
  ASSERT_TRUE(serve::write_frame(fd, run_request(kGoodDeck).dump(), 5.0));
  std::string reply;
  char chunk[4096];
  ssize_t got = 0;
  while (reply.find('\n') == std::string::npos &&
         (got = ::read(fd, chunk, sizeof chunk)) > 0) {
    reply.append(chunk, static_cast<std::size_t>(got));
  }
  const std::size_t nl = reply.find('\n');
  ASSERT_NE(nl, std::string::npos);
  EXPECT_TRUE(Json::parse(reply.substr(0, nl))["ok"].as_bool());
  ::close(fd);

  server.request_drain();
  server.wait();
}
