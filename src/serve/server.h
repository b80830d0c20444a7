#pragma once

/// @file server.h
/// The hardened concurrent simulation service behind tools/carbon_simd:
/// a netlist-in → JSON-out server on a TCP or Unix-domain socket speaking
/// newline-delimited JSON frames.
///
/// Architecture (one Server instance per process):
///
///   I/O thread (poll) ──> BoundedQueue<RunRequest> ──> worker pool (one
///     owns every socket:    (admission control)        SimSession per
///     accept, framing,                                  worker, all sharing
///     health/metrics,       <── wake pipe ──────────── one immutable
///     hang-up, drain,            (fd returned after     ModelRegistry)
///     stats line                  its reply; -1 = drain)
///
/// A connection is idle (the I/O thread reads it) or lent (a worker holds
/// its one run request).  A lent connection is polled only for peer
/// hang-up, so its replies stay in request order and no two threads ever
/// write one socket.  Idle connections cost no worker: their number is
/// bounded only by the process fd limit, and each buffers at most
/// max_request_bytes of a partial frame (plus one read).
///
/// Robustness contract:
///  * Load is shed, never buffered unboundedly: a run request that finds
///    the queue full gets {"ok":false,"error":{"type":"overload"}} and the
///    connection stays open; a frame over max_request_bytes gets
///    {"type":"too_large"} and a close.
///  * Every request admitted produces exactly one response document.  Any
///    exception at the request boundary renders as {"type":"internal"} —
///    a bad deck can never take the process down.
///  * Every run request executes under a phys::CancelToken deadline
///    (request deadline_ms, capped by max_deadline_s) chained to the
///    server-wide drain token and polled through every Newton iteration,
///    transient step and AC/noise frequency point: a hung solve becomes a
///    bounded {"type":"timeout"} document.
///  * Disconnect detection: the I/O thread polls every lent connection for
///    peer hang-up and cancels its request, so a client that gives up does
///    not keep burning a worker.  A half-close (the peer shut down only
///    its sending side) is no hang-up: the request is answered, and the
///    connection closes at the end of what the peer sent.
///  * Worker replies are bounded by write_timeout_s; the I/O thread's own
///    replies by the shorter of 1 s and write_timeout_s.
///  * Graceful drain (SIGTERM/SIGINT or request_drain()): close the
///    listener and every idle connection, finish — or cancel at the drain
///    budget — all admitted work, flush every response, exit run() with 0.
///
/// Wire protocol: one JSON object per line.
///   {"type":"run","deck":"...netlist...","deadline_ms":5000,"id":7}
///   {"type":"health"}            (alias: "stats")
///   {"type":"metrics"}           (Prometheus text + JSON snapshot)
/// Responses echo "id" verbatim when present.  Run responses are the
/// SimSession document (ok / error.type in {parse, solve_failure,
/// timeout, cancelled, internal}); health responses expose queue depth,
/// in-flight count, per-outcome counters, aggregated session-cache stats
/// and the process-wide model store's (spice/model_store.h).

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <optional>
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
  int queue_capacity = 64;  ///< admitted run requests before overload

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
  obs::Histogram& queue_wait;   ///< admission → worker pop, per run request
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

  /// Bind, listen and spawn the I/O thread and the worker pool.  Throws
  /// std::runtime_error when the socket cannot be set up.  Returns once
  /// the server is accepting.
  void start();

  /// Block until the drain completes (all threads joined, all admitted
  /// responses flushed).  start() must have been called.
  void wait();

  /// start() + wait(); the tool's main loop.  Returns 0 on a clean drain.
  int run();

  /// Begin the graceful drain from any thread: stop accepting, close idle
  /// connections, let admitted work finish within drain_budget_s (hung
  /// solves are cancelled at the budget), flush responses, then wake
  /// wait().  Idempotent and async-signal-safe (one lock-free exchange and
  /// at most one pipe write), so a SIGTERM handler may call it.
  void request_drain();

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
  struct StoreInstruments;
  struct Lease;
  struct Conn;

  /// One admitted run request, decoded on the I/O thread.
  struct RunRequest {
    int fd = -1;              ///< the lent connection the reply goes to
    Lease* lease = nullptr;   ///< owned by the I/O thread until fd returns
    std::string deck;
    double deadline_s = 0.0;  ///< clamped budget, armed at worker pop
    std::optional<core::Json> id;
    std::chrono::steady_clock::time_point admitted_at{};
  };

  void io_main();
  void worker_main(WorkerState& w);

  /// Handle the complete frames buffered on idle connection @p fd until
  /// one lends it to a worker.  False: close the connection.
  bool serve_frames(int fd, Conn& c);
  /// Answer one frame, or lend the connection with a valid run request.
  /// False: close the connection.
  bool handle_frame(int fd, Conn& c, const std::string& line);
  core::Json health_doc() const;
  core::Json metrics_doc() const;
  void print_stats() const;

  ServerConfig cfg_;
  obs::MetricsRegistry metrics_;  ///< must precede the instrument structs
  ServerStats stats_;
  ServerInstruments inst_;
  BoundedQueue<RunRequest> queue_;

  int listen_fd_ = -1;
  int port_ = 0;
  /// Ints to the I/O thread: a lent fd coming back from its worker, or -1
  /// for a drain (request_drain() writes at most one).
  int wake_pipe_[2] = {-1, -1};

  phys::CancelToken drain_token_;  ///< parent of every request token
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  std::thread io_thread_;
  std::vector<std::thread> worker_threads_;
  std::vector<std::unique_ptr<WorkerState>> worker_states_;
  /// Registered after the per-worker gauges; refreshed at exposition time.
  std::unique_ptr<StoreInstruments> store_inst_;
};

}  // namespace carbon::serve
