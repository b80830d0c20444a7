#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/framing.h"
#include "spice/model_store.h"

#ifndef POLLRDHUP
#define POLLRDHUP 0  // non-Linux fallback: rely on POLLERR/POLLHUP only
#endif

namespace carbon::serve {

using core::Json;

namespace {

Json error_doc(const std::string& type, const std::string& what) {
  auto err = Json::object();
  err.set("type", type);
  err.set("what", what);
  auto doc = Json::object();
  doc.set("ok", false);
  doc.set("error", std::move(err));
  return doc;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// One int into the wake pipe.  Async-signal-safe: request_drain() runs
/// from a SIGTERM handler.
void send_int(int fd, int value) {
  while (::write(fd, &value, sizeof value) < 0 && errno == EINTR) {
  }
}

/// Write budget of the I/O thread's own replies: the short one the overload
/// shed always had, so one slow reader cannot stall every connection long.
double io_write_budget_s(const ServerConfig& cfg) {
  return std::min(1.0, std::max(0.05, cfg.write_timeout_s));
}

long long since_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ServerStats::ServerStats(obs::MetricsRegistry& m)
    : accepted(m.counter("carbon_accepted_total", "",
                         "Connections accepted by the listener")),
      rejected_overload(m.counter("carbon_rejected_total",
                                  "reason=\"overload\"",
                                  "Run requests shed by admission control "
                                  "(overload; the connection stays open) "
                                  "and oversized frames (too_large)")),
      rejected_too_large(
          m.counter("carbon_rejected_total", "reason=\"too_large\"")),
      bad_requests(m.counter("carbon_bad_requests_total", "",
                             "Frames that were not a valid request")),
      requests_run(m.counter("carbon_requests_started_total", "",
                             "Run requests admitted to a worker session")),
      requests_ok(m.counter("carbon_requests_total", "outcome=\"ok\"",
                            "Run requests by outcome class")),
      parse_errors(m.counter("carbon_requests_total", "outcome=\"parse\"")),
      solve_failures(
          m.counter("carbon_requests_total", "outcome=\"solve_failure\"")),
      timeouts(m.counter("carbon_requests_total", "outcome=\"timeout\"")),
      cancelled(m.counter("carbon_requests_total", "outcome=\"cancelled\"")),
      internal_errors(
          m.counter("carbon_requests_total", "outcome=\"internal\"")),
      health_requests(m.counter("carbon_health_requests_total", "",
                                "health/stats requests served")),
      metrics_requests(m.counter("carbon_metrics_requests_total", "",
                                 "metrics requests served")),
      disconnects(m.counter("carbon_disconnects_total", "",
                            "Clients gone before their response")),
      in_flight(m.gauge("carbon_in_flight", "",
                        "Run requests currently executing")) {}

ServerInstruments::ServerInstruments(obs::MetricsRegistry& m)
    : queue_depth(m.gauge("carbon_queue_depth", "",
                          "Admitted run requests waiting for a worker")),
      queue_wait(m.histogram("carbon_queue_wait_seconds", "",
                             "Admission to worker pop, per run request")),
      lat_ok(m.histogram("carbon_request_seconds", "outcome=\"ok\"",
                         "Run request service latency by outcome class")),
      lat_parse(m.histogram("carbon_request_seconds", "outcome=\"parse\"")),
      lat_solve_failure(
          m.histogram("carbon_request_seconds", "outcome=\"solve_failure\"")),
      lat_timeout(m.histogram("carbon_request_seconds", "outcome=\"timeout\"")),
      lat_cancelled(
          m.histogram("carbon_request_seconds", "outcome=\"cancelled\"")),
      lat_internal(
          m.histogram("carbon_request_seconds", "outcome=\"internal\"")),
      cache_hits(m.counter("carbon_session_cache_total", "event=\"hit\"",
                           "Session topology-cache events, all workers")),
      cache_misses(m.counter("carbon_session_cache_total", "event=\"miss\"")),
      cache_evictions(
          m.counter("carbon_session_cache_total", "event=\"eviction\"")),
      phase_ns{&m.counter("carbon_phase_ns_total", "phase=\"stamp\"",
                          "Solver phase time [ns], all workers"),
               &m.counter("carbon_phase_ns_total", "phase=\"eval\""),
               &m.counter("carbon_phase_ns_total", "phase=\"factor\""),
               &m.counter("carbon_phase_ns_total", "phase=\"solve\"")} {}

struct Server::WorkerState {
  WorkerState(obs::MetricsRegistry& m, int index)
      : entries(m.gauge("carbon_session_cache_entries",
                        "worker=\"" + std::to_string(index) + "\"",
                        "Live topology-cache entries per worker")) {}

  /// Live topology-cache size of this worker's session, for health
  /// aggregation (hit/miss/eviction counters flow through the shared
  /// registry instead — ServerInstruments is the single source of truth).
  obs::Gauge& entries;

  // What this worker already folded into the shared counters; worker-local
  // (single writer), so no atomics needed.
  spice::SessionCacheStats exported{};
  spice::SolveRecord exported_phases{};
};

/// The process-wide spice::ModelStore's counters.  The store counts on its
/// own; the exposition copies its figures in.
struct Server::StoreInstruments {
  explicit StoreInstruments(obs::MetricsRegistry& m)
      : hits(m.counter("carbon_model_store_total", "event=\"hit\"",
                       "Process-wide device-model store events")),
        builds(m.counter("carbon_model_store_total", "event=\"build\"")),
        evictions(
            m.counter("carbon_model_store_total", "event=\"eviction\"")),
        entries(m.gauge("carbon_model_store_entries", "",
                        "Device models in the process-wide store")) {}

  obs::Counter& hits;
  obs::Counter& builds;
  obs::Counter& evictions;
  obs::Gauge& entries;
  /// The store figures the counters hold (touched by exposition only).
  spice::ModelStoreStats exported{};
};

/// The state a lent connection shares with the worker holding its request.
/// The I/O thread frees it only after the worker handed the fd back, so
/// neither side can touch it after the other let go.
struct Server::Lease {
  explicit Lease(const phys::CancelToken* drain) : token(drain) {}

  phys::CancelToken token;  ///< the request's token, child of the drain token
  /// The peer hung up (set by the I/O thread, which also cancels token) or
  /// the reply write failed (set by the worker): close the fd on return.
  std::atomic<bool> gone{false};
};

/// One client connection; only the I/O thread touches it.
struct Server::Conn {
  FrameReader frames;
  std::unique_ptr<Lease> lease;  ///< non-null while the connection is lent
  bool half_closed = false;      ///< the peer shut down its sending side
};

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      stats_(metrics_),
      inst_(metrics_),
      queue_(static_cast<std::size_t>(std::max(1, cfg_.queue_capacity))) {
  cfg_.workers = std::max(1, cfg_.workers);
  // Worker states (and their labeled gauges) exist from construction so
  // metrics() exposes the complete schema before start().
  for (int i = 0; i < cfg_.workers; ++i) {
    worker_states_.push_back(std::make_unique<WorkerState>(metrics_, i));
  }
  store_inst_ = std::make_unique<StoreInstruments>(metrics_);
}

Server::~Server() {
  if (io_thread_.joinable()) {
    request_drain();
    wait();
  }
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  close_fd(listen_fd_);
}

void Server::start() {
  if (started_.exchange(true)) {
    throw std::runtime_error("serve: start() called twice");
  }
  if (::pipe(wake_pipe_) != 0) {
    throw std::runtime_error("serve: pipe() failed");
  }

  // Non-blocking listener and connections: the I/O thread must never
  // block in accept() or read(), and write_frame() bounds every write.
  if (!cfg_.unix_path.empty()) {
    struct sockaddr_un addr;
    if (cfg_.unix_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("serve: unix socket path too long: " +
                               cfg_.unix_path);
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
    ::unlink(cfg_.unix_path.c_str());  // stale socket from a previous run
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw std::runtime_error("serve: cannot bind " + cfg_.unix_path + ": " +
                               std::strerror(errno));
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (listen_fd_ < 0) throw std::runtime_error("serve: socket() failed");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port));
    if (::inet_pton(AF_INET, cfg_.tcp_host.c_str(), &addr.sin_addr) != 1) {
      throw std::runtime_error("serve: bad listen address " + cfg_.tcp_host);
    }
    if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof addr) != 0) {
      throw std::runtime_error("serve: cannot bind " + cfg_.tcp_host + ":" +
                               std::to_string(cfg_.tcp_port) + ": " +
                               std::strerror(errno));
    }
    struct sockaddr_in bound;
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                  &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::listen(listen_fd_, SOMAXCONN) != 0) {
    throw std::runtime_error("serve: listen() failed");
  }

  for (int i = 0; i < cfg_.workers; ++i) {
    WorkerState* w = worker_states_[static_cast<std::size_t>(i)].get();
    worker_threads_.emplace_back([this, w] { worker_main(*w); });
  }
  io_thread_ = std::thread([this] { io_main(); });
}

void Server::wait() {
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
}

int Server::run() {
  start();
  wait();
  return 0;
}

void Server::request_drain() {
  if (!started_.load() || wake_pipe_[1] < 0) return;
  if (draining_.exchange(true)) return;  // at most one -1 ever queued
  send_int(wake_pipe_[1], -1);
}

std::string Server::endpoint() const {
  if (!cfg_.unix_path.empty()) return "unix:" + cfg_.unix_path;
  return cfg_.tcp_host + ":" + std::to_string(port_);
}

// ------------------------------------------------------------------ I/O loop

void Server::io_main() {
  using Clock = std::chrono::steady_clock;
  std::map<int, Conn> conns;  // node-based: a Lease's owner never moves
  std::vector<struct pollfd> fds;
  bool stopping = false;       // drain begun: listener and idle fds closed
  bool accept_paused = false;  // accept() hit the fd limit
  const auto stats_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg_.stats_interval_s));
  Clock::time_point next_stats = Clock::now() + stats_period;
  char chunk[64 * 1024];

  auto close_conn = [&](std::map<int, Conn>::iterator it) {
    ::close(it->first);
    accept_paused = false;  // a descriptor is free again
    return conns.erase(it);
  };
  auto begin_drain = [&] {
    stopping = true;
    draining_.store(true, std::memory_order_release);
    close_fd(listen_fd_);
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second.lease) ++it;
      else it = close_conn(it);
    }
    queue_.close();  // admitted requests still drain
    if (cfg_.drain_budget_s > 0.0) {
      // In-flight (and still-queued) work gets this much wall clock; a hung
      // solve is cancelled at the budget and renders as a timeout document.
      drain_token_.set_deadline_after(cfg_.drain_budget_s);
    } else {
      drain_token_.cancel();
    }
  };

  // Once draining, only lent connections remain, each closed on return.
  while (!stopping || !conns.empty()) {
    fds.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const auto& [fd, c] : conns) {
      if (!c.lease) {
        fds.push_back({fd, POLLIN, 0});
      } else if (!c.lease->gone.load(std::memory_order_acquire)) {
        // A lent connection is watched for hang-up only, and pipelined
        // request bytes wait in the kernel.  POLLRDHUP reports that the peer
        // stopped sending, once; POLLHUP/POLLERR (always reported) that it
        // is gone.  Once gone it leaves the set until its worker returns it,
        // so the loop cannot spin on it.
        fds.push_back({fd, static_cast<short>(c.half_closed ? 0 : POLLRDHUP),
                       0});
      }
    }
    const std::size_t conn_end = fds.size();
    if (listen_fd_ >= 0 && !accept_paused) {
      fds.push_back({listen_fd_, POLLIN, 0});
    }

    int timeout_ms = -1;
    if (cfg_.stats_interval_s > 0.0) {
      const Clock::time_point now = Clock::now();
      if (now >= next_stats) {
        print_stats();
        next_stats = now + stats_period;
      }
      // Capped at a minute so a long period cannot overflow the int.
      timeout_ms = static_cast<int>(std::min<long long>(
          60'000, std::chrono::ceil<std::chrono::milliseconds>(next_stats - now)
                      .count()));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno != EINTR && !stopping) begin_drain();
      continue;
    }

    // Connections, then the listener, then returns and drain: a fd number
    // freed on the way is reused only by an accept after its old entry.
    for (std::size_t i = 1; i < conn_end; ++i) {
      if (fds[i].revents == 0) continue;
      const auto it = conns.find(fds[i].fd);
      if (it == conns.end()) continue;
      Conn& c = it->second;
      if (c.lease) {
        if (!(fds[i].revents & (POLLHUP | POLLERR))) {
          // Half-closed (shutdown(SHUT_WR), nc -N): the peer still reads.
          // The request runs and is answered; the fd closes on EOF after.
          c.half_closed = true;
          continue;
        }
        // The peer hung up mid-request: cancel the solve; the worker skips
        // the reply, and the fd closes when it comes back.
        c.lease->gone.store(true, std::memory_order_release);
        c.lease->token.cancel();
        continue;
      }
      const ssize_t got = ::read(it->first, chunk, sizeof chunk);
      if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (got <= 0) {
        close_conn(it);  // EOF (a partial frame is dropped) or error
        continue;
      }
      c.frames.append(chunk, static_cast<std::size_t>(got));
      if (!serve_frames(it->first, c)) close_conn(it);
    }

    if (conn_end < fds.size() && (fds[conn_end].revents & POLLIN)) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
      if (fd >= 0) {
        stats_.accepted.inc();
        conns.try_emplace(fd,
                          Conn{FrameReader(cfg_.max_request_bytes), nullptr});
      } else if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: pending clients wait in the backlog until a
        // connection closes, instead of the loop spinning on accept().
        accept_paused = true;
      }
    }

    if (fds[0].revents & POLLIN) {
      int msgs[64];
      const ssize_t got = ::read(wake_pipe_[0], msgs, sizeof msgs);
      for (ssize_t k = 0; k < got / static_cast<ssize_t>(sizeof(int)); ++k) {
        if (msgs[k] < 0) {
          if (!stopping) begin_drain();
          continue;
        }
        // A worker is done with this connection: serve what the client
        // pipelined behind the answered request, or close.
        const auto it = conns.find(msgs[k]);
        Conn& c = it->second;
        const bool gone = c.lease->gone.load(std::memory_order_acquire);
        c.lease.reset();
        if (gone || stopping || !serve_frames(it->first, c)) close_conn(it);
      }
    }
  }
}

bool Server::serve_frames(int fd, Conn& c) {
  std::string line;
  while (!c.lease) {  // a lent connection's next frame waits for its return
    switch (c.frames.next(&line)) {
      case FrameStatus::kFrame:
        if (!handle_frame(fd, c, line)) return false;
        break;
      case FrameStatus::kNeedMore:
        return true;
      case FrameStatus::kTooLarge:
        // The frame boundary is lost once a line is cut off mid-stream, so
        // reject-and-close is the only safe resynchronization.
        stats_.rejected_too_large.inc();
        write_frame(fd,
                    error_doc("too_large",
                              "request frame exceeds " +
                                  std::to_string(cfg_.max_request_bytes) +
                                  " bytes")
                        .dump(),
                    io_write_budget_s(cfg_));
        return false;
    }
  }
  return true;
}

bool Server::handle_frame(int fd, Conn& c, const std::string& line) {
  const Json* id = nullptr;
  auto reply = [&](Json doc) {
    if (id) doc.set("id", *id);
    return write_frame(fd, doc.dump(), io_write_budget_s(cfg_));
  };

  Json req;
  try {
    req = Json::parse(line);
  } catch (const std::exception& e) {
    stats_.bad_requests.inc();
    return reply(error_doc(
        "bad_request", std::string("request is not valid JSON: ") + e.what()));
  }
  if (!req.is_object()) {
    stats_.bad_requests.inc();
    return reply(error_doc("bad_request", "request must be a JSON object"));
  }
  id = req.find("id");

  std::string type;
  if (const Json* t = req.find("type")) {
    if (!t->is_string()) {
      stats_.bad_requests.inc();
      return reply(error_doc("bad_request", "'type' must be a string"));
    }
    type = t->as_string();
  } else {
    type = req.find("deck") ? "run" : "";
  }

  if (type == "health" || type == "stats") {
    stats_.health_requests.inc();
    return reply(health_doc());
  }
  if (type == "metrics") {
    stats_.metrics_requests.inc();
    return reply(metrics_doc());
  }
  if (type != "run") {
    stats_.bad_requests.inc();
    return reply(error_doc(
        "bad_request", "unknown request type '" + type +
                           "' (want run, health, stats or metrics)"));
  }

  const Json* deck = req.find("deck");
  if (!deck || !deck->is_string()) {
    stats_.bad_requests.inc();
    return reply(error_doc("bad_request", "run request wants a 'deck' string"));
  }
  double deadline_s = cfg_.default_deadline_s;
  if (const Json* dl = req.find("deadline_ms")) {
    if (!dl->is_number()) {
      stats_.bad_requests.inc();
      return reply(error_doc("bad_request", "'deadline_ms' must be a number"));
    }
    deadline_s = dl->as_double() * 1e-3;
  }

  RunRequest run;
  run.fd = fd;
  run.deck = deck->as_string();
  run.deadline_s = std::min(std::max(deadline_s, 1e-3), cfg_.max_deadline_s);
  if (id) run.id = *id;
  c.lease = std::make_unique<Lease>(&drain_token_);
  run.lease = c.lease.get();
  run.admitted_at = std::chrono::steady_clock::now();
  if (queue_.try_push(std::move(run))) return true;

  // Admission control: shed the request with a structured overload
  // document, never buffer it; the connection stays open.
  c.lease.reset();
  stats_.rejected_overload.inc();
  return reply(error_doc("overload", "request queue full; retry later"));
}

// -------------------------------------------------------------- worker pool

void Server::worker_main(WorkerState& w) {
  // One long-lived session per worker; all workers share the immutable
  // model registry by value (DeviceModelPtr copies of const models).
  // Phase collection is always on in the service: the per-iteration cost
  // is a few clock reads, and it feeds the carbon_phase_ns_total family.
  spice::SessionOptions sopts = cfg_.session;
  sopts.collect_phases = true;
  spice::SimSession session(cfg_.registry, sopts);
  while (std::optional<RunRequest> req = queue_.pop()) {
    // Queue wait (admission → pop) is recorded apart from service time:
    // a saturated worker pool shows up here, a slow deck shows up in
    // carbon_request_seconds.
    inst_.queue_wait.record_ns(since_ns(req->admitted_at));
    const auto t_service0 = std::chrono::steady_clock::now();

    // Per-request deadline chained to the server-wide drain token: whichever
    // fires first cancels the solve at its next poll point, and so does the
    // I/O thread when the peer hangs up.
    phys::CancelToken& token = req->lease->token;
    token.set_deadline_after(req->deadline_s);
    stats_.requests_run.inc();
    stats_.in_flight.add(1);

    Json doc;
    try {
      doc = session.run_deck_text(req->deck, &token);
    } catch (const std::exception& e) {
      // run_deck_text is contractually no-throw; this is the last-ditch
      // request-isolation boundary all the same.
      doc = error_doc("internal", e.what());
    } catch (...) {
      doc = error_doc("internal", "unknown exception");
    }

    stats_.in_flight.sub(1);

    // Fold this worker's session counters into the shared registry: the
    // delta against what was already exported goes to the monotonic cache
    // and phase counters (single source of truth — health and metrics both
    // read the registry), and the live entry count to the per-worker gauge.
    const spice::SessionCacheStats cs = session.cache_stats();
    inst_.cache_hits.inc(cs.hits - w.exported.hits);
    inst_.cache_misses.inc(cs.misses - w.exported.misses);
    inst_.cache_evictions.inc(cs.evictions - w.exported.evictions);
    w.entries.set(cs.entries);
    w.exported = cs;
    const spice::SolveRecord& pt = session.phases();
    for (int p = 0; p < spice::SolveRecord::kPhases; ++p) {
      inst_.phase_ns[p]->inc(pt.phase_ns[p] - w.exported_phases.phase_ns[p]);
    }
    w.exported_phases = pt;

    // Outcome accounting.  The latency record sits in the same branch as
    // the counter increment, before the response write, so every outcome's
    // histogram count equals its counter at any quiescent point.
    const long long service_ns = since_ns(t_service0);
    const Json* ok = doc.find("ok");
    if (ok && ok->is_bool() && ok->as_bool()) {
      stats_.requests_ok.inc();
      inst_.lat_ok.record_ns(service_ns);
    } else {
      std::string etype = "internal";
      if (const Json* err = doc.find("error")) {
        if (const Json* t = err->find("type")) {
          if (t->is_string()) etype = t->as_string();
        }
      }
      if (etype == "parse") {
        stats_.parse_errors.inc();
        inst_.lat_parse.record_ns(service_ns);
      } else if (etype == "solve_failure") {
        stats_.solve_failures.inc();
        inst_.lat_solve_failure.record_ns(service_ns);
      } else if (etype == "timeout") {
        stats_.timeouts.inc();
        inst_.lat_timeout.record_ns(service_ns);
      } else if (etype == "cancelled") {
        stats_.cancelled.inc();
        inst_.lat_cancelled.record_ns(service_ns);
      } else {
        stats_.internal_errors.inc();
        inst_.lat_internal.record_ns(service_ns);
      }
    }

    // A client that hung up mid-solve (the I/O thread cancelled it) has
    // nobody left to read the document; a failed write is the same loss.
    if (req->id) doc.set("id", *req->id);
    if (req->lease->gone.load(std::memory_order_acquire) ||
        !write_frame(req->fd, doc.dump(), cfg_.write_timeout_s)) {
      stats_.disconnects.inc();
      req->lease->gone.store(true, std::memory_order_release);
    }

    // Hand the connection back; the lease is the I/O thread's again.
    send_int(wake_pipe_[1], req->fd);
  }
}

Json Server::health_doc() const {
  auto server = Json::object();
  server.set("endpoint", endpoint());
  server.set("workers", cfg_.workers);
  server.set("draining", draining());
  server.set("queue_depth", static_cast<long>(queue_.depth()));
  server.set("queue_capacity", static_cast<long>(queue_.capacity()));
  server.set("in_flight", stats_.in_flight.load());
  server.set("accepted", stats_.accepted.load());
  server.set("rejected_overload", stats_.rejected_overload.load());
  server.set("rejected_too_large", stats_.rejected_too_large.load());
  server.set("bad_requests", stats_.bad_requests.load());
  server.set("disconnects", stats_.disconnects.load());

  auto outcomes = Json::object();
  outcomes.set("run", stats_.requests_run.load());
  outcomes.set("ok", stats_.requests_ok.load());
  outcomes.set("parse", stats_.parse_errors.load());
  outcomes.set("solve_failure", stats_.solve_failures.load());
  outcomes.set("timeout", stats_.timeouts.load());
  outcomes.set("cancelled", stats_.cancelled.load());
  outcomes.set("internal", stats_.internal_errors.load());
  outcomes.set("health", stats_.health_requests.load());
  server.set("requests", std::move(outcomes));

  // Monotonic cache events come from the shared registry counters; only
  // the live entry count is aggregated across the per-worker gauges.
  long entries = 0;
  for (const auto& w : worker_states_) entries += w->entries.load();
  auto cache = Json::object();
  cache.set("hits", inst_.cache_hits.load());
  cache.set("misses", inst_.cache_misses.load());
  cache.set("evictions", inst_.cache_evictions.load());
  cache.set("entries", entries);
  server.set("session_cache", std::move(cache));

  const spice::ModelStoreStats ms = spice::ModelStore::instance().stats();
  auto store = Json::object();
  store.set("hits", ms.hits);
  store.set("builds", ms.builds);
  store.set("evictions", ms.evictions);
  store.set("entries", ms.entries);
  server.set("model_store", std::move(store));

  auto doc = Json::object();
  doc.set("ok", true);
  doc.set("type", "health");
  doc.set("server", std::move(server));
  return doc;
}

Json Server::metrics_doc() const {
  // Pull gauges and the model store's figures only the scrape observes up
  // to date first.
  inst_.queue_depth.set(static_cast<long>(queue_.depth()));
  const spice::ModelStoreStats ms = spice::ModelStore::instance().stats();
  StoreInstruments& st = *store_inst_;
  st.hits.inc(ms.hits - st.exported.hits);
  st.builds.inc(ms.builds - st.exported.builds);
  st.evictions.inc(ms.evictions - st.exported.evictions);
  st.entries.set(ms.entries);
  st.exported = ms;
  auto doc = Json::object();
  doc.set("ok", true);
  doc.set("type", "metrics");
  doc.set("prometheus", metrics_.prometheus());
  doc.set("metrics", metrics_.to_json());
  return doc;
}

void Server::print_stats() const {
  const long run = stats_.requests_run.load();
  const long ok = stats_.requests_ok.load();
  const long failed = stats_.parse_errors.load() +
                      stats_.solve_failures.load() + stats_.timeouts.load() +
                      stats_.cancelled.load() + stats_.internal_errors.load();
  std::fprintf(stderr,
               "[carbon_simd] accepted=%ld run=%ld ok=%ld failed=%ld "
               "in_flight=%ld queue=%zu cache_hits=%ld cache_misses=%ld\n",
               stats_.accepted.load(), run, ok, failed,
               stats_.in_flight.load(), queue_.depth(),
               inst_.cache_hits.load(), inst_.cache_misses.load());
}

}  // namespace carbon::serve
