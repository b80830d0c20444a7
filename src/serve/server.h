#pragma once

/// @file server.h
/// The hardened concurrent simulation service behind tools/carbon_simd:
/// a netlist-in → JSON-out server on a TCP or Unix-domain socket speaking
/// newline-delimited JSON frames.
///
/// Architecture (one Server instance per process):
///
///   accept loop ──> BoundedQueue<fd> ──> worker pool (one SimSession per
///        │            (admission         worker, all sharing one
///        │             control)          immutable ModelRegistry)
///        │                                   │
///        └── signal pipe (SIGTERM/INT)       └── disconnect monitor
///            starts the graceful drain           (cancels in-flight
///                                                 solves of dead peers)
///
/// Robustness contract:
///  * Load is shed, never buffered unboundedly: a full queue rejects the
///    connection with {"ok":false,"error":{"type":"overload"}}; a frame
///    over max_request_bytes gets {"type":"too_large"}.
///  * Every request admitted produces exactly one response document.  Any
///    exception at the request boundary renders as {"type":"internal"} —
///    a bad deck can never take the process down.
///  * Every run request executes under a phys::CancelToken deadline
///    (request deadline_ms, capped by max_deadline_s) chained to the
///    server-wide drain token and polled through every Newton iteration,
///    transient step and AC/noise frequency point: a hung solve becomes a
///    bounded {"type":"timeout"} document, mirroring the ensemble
///    engine's hung-corner handling.
///  * Disconnect detection: a monitor thread polls in-flight connections
///    for peer hang-up and cancels their solves, so a client that gives
///    up does not keep burning a worker.
///  * Slow-client writes are bounded by write_timeout_s.
///  * Graceful drain (SIGTERM/SIGINT via drain_notify_fd(), or
///    request_drain()): stop accepting, finish — or cancel at the drain
///    budget — all admitted work, flush every response, exit run() with 0.
///
/// Wire protocol: one JSON object per line.
///   {"type":"run","deck":"...netlist...","deadline_ms":5000,"id":7}
///   {"type":"health"}            (alias: "stats")
///   {"type":"metrics"}           (Prometheus text + JSON snapshot)
/// Responses echo "id" verbatim when present.  Run responses are the
/// SimSession document (ok / error.type in {parse, solve_failure,
/// timeout, cancelled, internal}); health responses expose queue depth,
/// in-flight count, per-outcome counters and aggregated session-cache
/// stats.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "phys/cancel.h"
#include "serve/queue.h"
#include "spice/netlist_parser.h"
#include "spice/session.h"

namespace carbon::serve {

struct ServerConfig {
  /// Non-empty: listen on this Unix-domain socket path (unlinked on
  /// close).  Empty: TCP on tcp_host:tcp_port.
  std::string unix_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = 0;  ///< 0 = ephemeral; read the bound port via port()

  int workers = 4;          ///< worker threads (one SimSession each)
  int queue_capacity = 64;  ///< admitted-connection backlog before overload

  std::size_t max_request_bytes = 4u << 20;  ///< per-frame ceiling

  double default_deadline_s = 30.0;  ///< run budget when the request has none
  double max_deadline_s = 600.0;     ///< cap on client-requested deadlines
  double write_timeout_s = 10.0;     ///< slow-client response write budget
  double drain_budget_s = 5.0;       ///< in-flight work budget after drain
                                     ///< starts (0 = cancel immediately)
  double stats_interval_s = 0.0;     ///< > 0: print a one-line counter
                                     ///< summary to stderr at this period

  /// Shared immutable model registry every worker session reads.
  spice::ModelRegistry registry;
  /// Per-worker session options (cache capacity, table emission).
  spice::SessionOptions session;
};

/// The server's monotonic counters, registry-backed: every member is a
/// stable reference into the server's obs::MetricsRegistry, so the same
/// instrument feeds the health document, the Prometheus exposition and
/// these (API-compatible, .load()-able) fields.  Updates stay relaxed
/// atomics — diagnostics, not synchronization.
struct ServerStats {
  explicit ServerStats(obs::MetricsRegistry& m);

  obs::Counter& accepted;
  obs::Counter& rejected_overload;
  obs::Counter& rejected_too_large;
  obs::Counter& bad_requests;
  obs::Counter& requests_run;
  obs::Counter& requests_ok;
  obs::Counter& parse_errors;
  obs::Counter& solve_failures;
  obs::Counter& timeouts;
  obs::Counter& cancelled;
  obs::Counter& internal_errors;
  obs::Counter& health_requests;
  obs::Counter& metrics_requests;
  obs::Counter& disconnects;
  obs::Gauge& in_flight;
};

/// The server's non-counter instruments: latency/queue-wait histograms,
/// session-cache aggregation and solver phase-time counters.  Like
/// ServerStats, every member is a stable registry reference.
struct ServerInstruments {
  explicit ServerInstruments(obs::MetricsRegistry& m);

  obs::Gauge& queue_depth;      ///< refreshed at exposition time
  obs::Histogram& queue_wait;   ///< admission → worker pop, per connection
  // Request service latency, one histogram per outcome class; recording
  // happens adjacent to the matching ServerStats counter increment so the
  // histogram count and the counter are always conserved together.
  obs::Histogram& lat_ok;
  obs::Histogram& lat_parse;
  obs::Histogram& lat_solve_failure;
  obs::Histogram& lat_timeout;
  obs::Histogram& lat_cancelled;
  obs::Histogram& lat_internal;
  // Session-cache counters aggregated across workers (single source of
  // truth; workers fold per-session deltas in after every request).
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cache_evictions;
  // Solver phase-time totals [ns] across all workers, indexed by
  // spice::SolveRecord::Phase.
  std::array<obs::Counter*, 4> phase_ns;
};

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen and spawn the accept loop, worker pool and disconnect
  /// monitor.  Throws std::runtime_error when the socket cannot be set
  /// up.  Returns once the server is accepting.
  void start();

  /// Block until the drain completes (all threads joined, all admitted
  /// responses flushed).  start() must have been called.
  void wait();

  /// start() + wait(); the tool's main loop.  Returns 0 on a clean drain.
  int run();

  /// Begin the graceful drain from any thread: stop accepting, let
  /// admitted work finish within drain_budget_s (hung solves are
  /// cancelled at the budget), flush responses, then wake wait().
  /// Idempotent.  NOT async-signal-safe — from a signal handler, write
  /// one byte to drain_notify_fd() instead.
  void request_drain();

  /// Write end of the drain pipe: a signal handler writing a single byte
  /// here triggers the same graceful drain (async-signal-safe).
  int drain_notify_fd() const { return signal_pipe_[1]; }

  /// Bound TCP port (after start(); 0 for Unix-domain listeners).
  int port() const { return port_; }
  /// Worker-pool size (after construction clamping).
  int workers() const { return cfg_.workers; }
  /// Human-readable listen endpoint (after start()).
  std::string endpoint() const;

  const ServerStats& stats() const { return stats_; }
  /// The registry behind every server instrument; {"type":"metrics"}
  /// requests and tests read the same snapshot through it.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  std::size_t queue_depth() const { return queue_.depth(); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  struct WorkerState;
  struct Watch;

  void accept_main();
  void worker_main(WorkerState& w);
  void monitor_main();
  void stats_main();
  void begin_drain_locked();

  /// Serve one admitted connection until EOF, error, oversized frame or
  /// drain.
  void serve_connection(int fd, spice::SimSession& session, WorkerState& w);
  /// Handle one parsed frame.  Returns false when the connection must be
  /// dropped (client gone / write failed).
  bool handle_request(int fd, const std::string& line,
                      spice::SimSession& session, WorkerState& w);
  core::Json health_doc() const;
  core::Json metrics_doc() const;
  bool send_doc(int fd, const core::Json& doc, double timeout_s);

  void watch_add(Watch* w);
  void watch_remove(Watch* w);

  ServerConfig cfg_;
  obs::MetricsRegistry metrics_;  ///< must precede the instrument structs
  ServerStats stats_;
  ServerInstruments inst_;
  BoundedQueue<Admitted> queue_;

  int listen_fd_ = -1;
  int port_ = 0;
  int signal_pipe_[2] = {-1, -1};  ///< [0] polled by accept loop
  int drain_pipe_[2] = {-1, -1};   ///< write end closed on drain; workers
                                   ///< poll [0] and wake on POLLHUP

  phys::CancelToken drain_token_;  ///< parent of every request token
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  std::thread monitor_thread_;

  // Periodic stderr summary (stats_interval_s > 0).
  std::thread stats_thread_;
  std::mutex stats_mu_;
  std::condition_variable stats_cv_;
  bool stats_stop_ = false;

  // Disconnect monitor state.
  std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  std::vector<Watch*> watches_;
  bool monitor_stop_ = false;
};

}  // namespace carbon::serve
