#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/framing.h"

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
                                  "Connections/frames shed by admission "
                                  "control")),
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
                          "Admitted connections waiting for a worker")),
      queue_wait(m.histogram("carbon_queue_wait_seconds", "",
                             "Admission to worker pop, per connection")),
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

/// One in-flight request as the disconnect monitor sees it.
struct Server::Watch {
  int fd = -1;
  phys::CancelToken* token = nullptr;
  std::atomic<bool> gone{false};
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
}

Server::~Server() {
  if (started_.load() && !stopped_.load()) {
    request_drain();
    wait();
  }
  close_fd(signal_pipe_[0]);
  close_fd(signal_pipe_[1]);
  close_fd(drain_pipe_[0]);
  close_fd(drain_pipe_[1]);
  close_fd(listen_fd_);
}

void Server::start() {
  if (started_.exchange(true)) {
    throw std::runtime_error("serve: start() called twice");
  }
  if (::pipe(signal_pipe_) != 0 || ::pipe(drain_pipe_) != 0) {
    throw std::runtime_error("serve: pipe() failed");
  }

  if (!cfg_.unix_path.empty()) {
    struct sockaddr_un addr;
    if (cfg_.unix_path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("serve: unix socket path too long: " +
                               cfg_.unix_path);
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
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
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
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

  monitor_thread_ = std::thread([this] { monitor_main(); });
  for (int i = 0; i < cfg_.workers; ++i) {
    WorkerState* w = worker_states_[static_cast<std::size_t>(i)].get();
    worker_threads_.emplace_back([this, w] { worker_main(*w); });
  }
  if (cfg_.stats_interval_s > 0.0) {
    stats_thread_ = std::thread([this] { stats_main(); });
  }
  accept_thread_ = std::thread([this] { accept_main(); });
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    monitor_stop_ = true;
  }
  watch_cv_.notify_all();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_stop_ = true;
  }
  stats_cv_.notify_all();
  if (stats_thread_.joinable()) stats_thread_.join();
  if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
  stopped_.store(true);
}

int Server::run() {
  start();
  wait();
  return 0;
}

void Server::request_drain() {
  if (!started_.load() || signal_pipe_[1] < 0) return;
  const char byte = 'q';
  // A full pipe means a drain byte is already pending: same effect.
  [[maybe_unused]] const ssize_t n = ::write(signal_pipe_[1], &byte, 1);
}

std::string Server::endpoint() const {
  if (!cfg_.unix_path.empty()) return "unix:" + cfg_.unix_path;
  return cfg_.tcp_host + ":" + std::to_string(port_);
}

// --------------------------------------------------------------- accept loop

void Server::accept_main() {
  for (;;) {
    struct pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[0].revents = 0;
    fds[1].fd = signal_pipe_[0];
    fds[1].events = POLLIN;
    fds[1].revents = 0;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) break;  // drain
    if (!(fds[0].revents & POLLIN)) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    stats_.accepted.inc();
    if (!queue_.try_push({conn, std::chrono::steady_clock::now()})) {
      // Admission control: shed the connection with a structured overload
      // document inside a small write budget, never buffer it.
      stats_.rejected_overload.inc();
      const Json doc =
          error_doc("overload", "request queue full; retry later");
      write_frame(conn, doc.dump(),
                  std::min(1.0, std::max(0.05, cfg_.write_timeout_s)));
      ::close(conn);
    }
  }

  // --- graceful drain -------------------------------------------------------
  draining_.store(true, std::memory_order_release);
  close_fd(listen_fd_);  // stop accepting
  queue_.close();        // admitted connections still drain
  if (cfg_.drain_budget_s > 0.0) {
    // In-flight (and still-queued) work gets this much wall clock; a hung
    // solve is cancelled at the budget and renders as a timeout document.
    drain_token_.set_deadline_after(cfg_.drain_budget_s);
  } else {
    drain_token_.cancel();
  }
  close_fd(drain_pipe_[1]);  // POLLHUP wakes workers idling in read_frame
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
  while (std::optional<Admitted> adm = queue_.pop()) {
    // Queue wait (admission → pop) is recorded apart from service time:
    // a saturated worker pool shows up here, a slow deck shows up in
    // carbon_request_seconds.
    inst_.queue_wait.record_ns(since_ns(adm->admitted_at));
    serve_connection(adm->fd, session, w);
  }
}

void Server::serve_connection(int fd, spice::SimSession& session,
                              WorkerState& w) {
  FrameReader reader(fd, cfg_.max_request_bytes);
  std::string line;
  for (;;) {
    const ReadStatus st = reader.read_frame(&line, drain_pipe_[0]);
    if (st == ReadStatus::kFrame) {
      if (!handle_request(fd, line, session, w)) break;
      // Drain: the response of the request that was already in flight is
      // flushed above; close the keep-alive connection instead of waiting
      // for more frames.
      if (draining()) break;
      continue;
    }
    if (st == ReadStatus::kTooLarge) {
      // The frame boundary is lost once a line is cut off mid-stream, so
      // reject-and-close is the only safe resynchronization.
      stats_.rejected_too_large.inc();
      send_doc(fd,
               error_doc("too_large",
                         "request frame exceeds " +
                             std::to_string(cfg_.max_request_bytes) +
                             " bytes"),
               cfg_.write_timeout_s);
    }
    break;  // kEof / kError / kInterrupted (drain while idle) / kTooLarge
  }
  ::close(fd);
}

bool Server::handle_request(int fd, const std::string& line,
                            spice::SimSession& session, WorkerState& w) {
  const auto t_service0 = std::chrono::steady_clock::now();
  Json req;
  try {
    req = Json::parse(line);
  } catch (const std::exception& e) {
    stats_.bad_requests.inc();
    return send_doc(fd,
                    error_doc("bad_request",
                              std::string("request is not valid JSON: ") +
                                  e.what()),
                    cfg_.write_timeout_s);
  }
  if (!req.is_object()) {
    stats_.bad_requests.inc();
    return send_doc(fd,
                    error_doc("bad_request", "request must be a JSON object"),
                    cfg_.write_timeout_s);
  }
  const Json* id = req.find("id");

  auto reply = [&](Json doc) {
    if (id) doc.set("id", *id);
    return send_doc(fd, doc, cfg_.write_timeout_s);
  };

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
  deadline_s = std::min(std::max(deadline_s, 1e-3), cfg_.max_deadline_s);

  // Per-request deadline chained to the server-wide drain token: whichever
  // fires first cancels the solve at its next poll point.
  phys::CancelToken token(&drain_token_);
  token.set_deadline_after(deadline_s);
  Watch watch;
  watch.fd = fd;
  watch.token = &token;
  watch_add(&watch);
  stats_.requests_run.inc();
  stats_.in_flight.add(1);

  Json doc;
  try {
    doc = session.run_deck_text(deck->as_string(), &token);
  } catch (const std::exception& e) {
    // run_deck_text is contractually no-throw; this is the last-ditch
    // request-isolation boundary all the same.
    doc = error_doc("internal", e.what());
  } catch (...) {
    doc = error_doc("internal", "unknown exception");
  }

  watch_remove(&watch);
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

  if (watch.gone.load(std::memory_order_acquire)) {
    // The client hung up mid-solve (the monitor cancelled it); there is
    // nobody left to write the document to.
    stats_.disconnects.inc();
    return false;
  }
  if (!reply(std::move(doc))) {
    stats_.disconnects.inc();
    return false;
  }
  return true;
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

  auto doc = Json::object();
  doc.set("ok", true);
  doc.set("type", "health");
  doc.set("server", std::move(server));
  return doc;
}

Json Server::metrics_doc() const {
  // Pull gauges only the scrape observes up to date first.
  inst_.queue_depth.set(static_cast<long>(queue_.depth()));
  auto doc = Json::object();
  doc.set("ok", true);
  doc.set("type", "metrics");
  doc.set("prometheus", metrics_.prometheus());
  doc.set("metrics", metrics_.to_json());
  return doc;
}

void Server::stats_main() {
  const auto interval = std::chrono::duration<double>(cfg_.stats_interval_s);
  std::unique_lock<std::mutex> lock(stats_mu_);
  while (!stats_cv_.wait_for(lock, interval, [&] { return stats_stop_; })) {
    const long run = stats_.requests_run.load();
    const long ok = stats_.requests_ok.load();
    const long failed = stats_.parse_errors.load() +
                        stats_.solve_failures.load() +
                        stats_.timeouts.load() + stats_.cancelled.load() +
                        stats_.internal_errors.load();
    std::fprintf(stderr,
                 "[carbon_simd] accepted=%ld run=%ld ok=%ld failed=%ld "
                 "in_flight=%ld queue=%zu cache_hits=%ld cache_misses=%ld\n",
                 stats_.accepted.load(), run, ok, failed,
                 stats_.in_flight.load(), queue_.depth(),
                 inst_.cache_hits.load(), inst_.cache_misses.load());
  }
}

bool Server::send_doc(int fd, const core::Json& doc, double timeout_s) {
  return write_frame(fd, doc.dump(), timeout_s);
}

// ------------------------------------------------------- disconnect monitor

void Server::watch_add(Watch* w) {
  {
    std::lock_guard<std::mutex> lock(watch_mu_);
    watches_.push_back(w);
  }
  watch_cv_.notify_all();
}

void Server::watch_remove(Watch* w) {
  std::lock_guard<std::mutex> lock(watch_mu_);
  watches_.erase(std::remove(watches_.begin(), watches_.end(), w),
                 watches_.end());
}

void Server::monitor_main() {
  std::unique_lock<std::mutex> lock(watch_mu_);
  std::vector<struct pollfd> fds;
  while (!monitor_stop_) {
    if (watches_.empty()) {
      watch_cv_.wait(lock,
                     [&] { return monitor_stop_ || !watches_.empty(); });
      continue;
    }
    fds.clear();
    for (const Watch* w : watches_) {
      struct pollfd p;
      p.fd = w->fd;
      // POLLRDHUP catches an orderly close() by the peer; POLLERR/POLLHUP
      // (always reported) catch resets.  POLLIN is deliberately absent:
      // pipelined request bytes must not look like a disconnect.
      p.events = POLLRDHUP;
      p.revents = 0;
      fds.push_back(p);
    }
    if (::poll(fds.data(), fds.size(), 0) > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) {
          // Cancel the in-flight solve; the worker sees `gone` and skips
          // the (pointless) response write.
          watches_[i]->gone.store(true, std::memory_order_release);
          watches_[i]->token->cancel();
        }
      }
    }
    // ~25 ms disconnect-detection latency: far below any solve worth
    // cancelling, far above the poll syscall cost.
    watch_cv_.wait_for(lock, std::chrono::milliseconds(25));
  }
}

}  // namespace carbon::serve
