/// @file carbon_simd.cpp
/// The concurrent simulation service: SPICE decks in, JSON documents out,
/// over a TCP or Unix-domain socket speaking newline-delimited JSON.
///
///   carbon_simd --tcp 9900                  # TCP on 127.0.0.1:9900
///   carbon_simd --tcp 0                     # ephemeral port (printed)
///   carbon_simd --unix /tmp/carbon.sock     # Unix-domain socket
///
/// On startup one ready line is printed to stdout:
///   {"ready":true,"endpoint":"127.0.0.1:9900","port":9900,"workers":4}
/// so a supervisor (or the smoke script) can wait for it and learn an
/// ephemeral port.  Requests and responses are one JSON object per line:
///
///   {"type":"run","deck":"v1 in 0 1\n...\n.end\n","deadline_ms":5000,"id":1}
///   {"type":"health"}
///   {"type":"metrics"}    (Prometheus text + JSON metric snapshot)
///
/// SIGTERM/SIGINT start the graceful drain: stop accepting, close idle
/// connections, finish or cancel in-flight work within --drain-ms, flush
/// every response, exit 0.
/// See src/serve/server.h for the full robustness contract.

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "device/alpha_power.h"
#include "device/faulty.h"
#include "device/ivmodel.h"
#include "device/linear_fet.h"
#include "serve/server.h"

namespace {

/// Built-in registry, matching carbon_sim: the paper's Fig. 2 device
/// family usable from any deck without a .model card.
carbon::spice::ModelRegistry builtin_models() {
  using namespace carbon::device;
  carbon::spice::ModelRegistry reg;
  auto nfet = std::make_shared<AlphaPowerModel>(make_fig2_saturating_params());
  reg["nfet"] = nfet;
  reg["pfet"] = std::make_shared<PTypeMirror>(nfet);
  auto linn = std::make_shared<LinearFetModel>(make_fig2_linear_params());
  reg["linfet_n"] = linn;
  reg["linfet_p"] = std::make_shared<PTypeMirror>(linn);
  return reg;
}

/// Fault-injection models for the integration tests and the CI smoke
/// script (--test-models): "hangfet" stalls 20 ms per eval — a deck using
/// it never finishes inside a sane deadline, exercising the timeout and
/// drain paths; "nanfet" goes NaN, exercising solver-failure isolation.
void add_test_models(carbon::spice::ModelRegistry& reg) {
  using namespace carbon::device;
  FaultSpec stall;
  stall.kind = FaultKind::kStall;
  stall.stall_s = 20e-3;
  reg["hangfet"] = with_fault(reg["nfet"], stall);
  FaultSpec nan;
  nan.kind = FaultKind::kNanEval;
  reg["nanfet"] = with_fault(reg["nfet"], nan);
}

carbon::serve::Server* g_server = nullptr;

extern "C" void drain_signal_handler(int) {
  // request_drain() is async-signal-safe: one int into the wake pipe.
  const int saved_errno = errno;
  if (g_server != nullptr) g_server->request_drain();
  errno = saved_errno;
}

int usage(int code) {
  std::cout
      << "usage: carbon_simd [--tcp PORT | --unix PATH] [options]\n"
         "  --tcp PORT            listen on 127.0.0.1:PORT (0 = ephemeral)\n"
         "  --host ADDR           TCP listen address (default 127.0.0.1)\n"
         "  --unix PATH           listen on a Unix-domain socket instead\n"
         "  --workers N           worker threads / concurrent sessions "
         "(default 4)\n"
         "  --queue N             admission queue capacity (default 64)\n"
         "  --max-request-bytes N per-frame ceiling (default 4194304)\n"
         "  --deadline-ms N       default per-request budget (default "
         "30000)\n"
         "  --max-deadline-ms N   cap on client deadlines (default 600000)\n"
         "  --write-timeout-ms N  slow-client write budget (default 10000)\n"
         "  --drain-ms N          in-flight budget after SIGTERM (default "
         "5000)\n"
         "  --cache N             per-worker topology-cache capacity "
         "(default 16)\n"
         "  --stats-interval-s N  print a one-line counter summary to "
         "stderr every N s\n"
         "  --no-tables           suppress table blocks in responses\n"
         "  --test-models         register fault-injection models "
         "(hangfet, nanfet)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  // A worker writing to a freshly dead client must get EPIPE, not die.
  std::signal(SIGPIPE, SIG_IGN);

  carbon::serve::ServerConfig cfg;
  cfg.registry = builtin_models();
  bool have_listener = false;

  auto num_arg = [&](int& i, const char* flag) -> double {
    if (i + 1 >= argc) {
      std::cerr << "carbon_simd: " << flag << " wants a value\n";
      std::exit(2);
    }
    try {
      return std::stod(argv[++i]);
    } catch (const std::exception&) {
      std::cerr << "carbon_simd: bad value for " << flag << "\n";
      std::exit(2);
    }
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tcp") {
      cfg.tcp_port = static_cast<int>(num_arg(i, "--tcp"));
      cfg.unix_path.clear();
      have_listener = true;
    } else if (arg == "--host") {
      if (i + 1 >= argc) return usage(2);
      cfg.tcp_host = argv[++i];
    } else if (arg == "--unix") {
      if (i + 1 >= argc) return usage(2);
      cfg.unix_path = argv[++i];
      have_listener = true;
    } else if (arg == "--workers") {
      cfg.workers = static_cast<int>(num_arg(i, "--workers"));
    } else if (arg == "--queue") {
      cfg.queue_capacity = static_cast<int>(num_arg(i, "--queue"));
    } else if (arg == "--max-request-bytes") {
      cfg.max_request_bytes =
          static_cast<std::size_t>(num_arg(i, "--max-request-bytes"));
    } else if (arg == "--deadline-ms") {
      cfg.default_deadline_s = num_arg(i, "--deadline-ms") * 1e-3;
    } else if (arg == "--max-deadline-ms") {
      cfg.max_deadline_s = num_arg(i, "--max-deadline-ms") * 1e-3;
    } else if (arg == "--write-timeout-ms") {
      cfg.write_timeout_s = num_arg(i, "--write-timeout-ms") * 1e-3;
    } else if (arg == "--drain-ms") {
      cfg.drain_budget_s = num_arg(i, "--drain-ms") * 1e-3;
    } else if (arg == "--cache") {
      cfg.session.cache_capacity = static_cast<int>(num_arg(i, "--cache"));
    } else if (arg == "--stats-interval-s") {
      cfg.stats_interval_s = num_arg(i, "--stats-interval-s");
    } else if (arg == "--no-tables") {
      cfg.session.emit_tables = false;
    } else if (arg == "--test-models") {
      add_test_models(cfg.registry);
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::cerr << "carbon_simd: unknown option " << arg << "\n";
      return usage(2);
    }
  }
  if (!have_listener) {
    std::cerr << "carbon_simd: need --tcp PORT or --unix PATH\n";
    return usage(2);
  }

  carbon::serve::Server server(std::move(cfg));
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "carbon_simd: " << e.what() << "\n";
    return 1;
  }

  g_server = &server;
  std::signal(SIGTERM, drain_signal_handler);
  std::signal(SIGINT, drain_signal_handler);

  {
    auto ready = carbon::core::Json::object();
    ready.set("ready", true);
    ready.set("endpoint", server.endpoint());
    ready.set("port", server.port());
    ready.set("workers", server.workers());
    std::cout << ready.dump() << std::endl;  // endl: flush for supervisors
  }

  const int rc = [&] {
    server.wait();
    return 0;
  }();

  // Final one-line drain report to stderr (stdout carries only protocol
  // and the ready line).
  const carbon::serve::ServerStats& s = server.stats();
  std::fprintf(stderr,
               "carbon_simd: drained; accepted=%ld run=%ld ok=%ld "
               "timeout=%ld overload=%ld disconnects=%ld\n",
               s.accepted.load(), s.requests_run.load(),
               s.requests_ok.load(), s.timeouts.load(),
               s.rejected_overload.load(), s.disconnects.load());
  g_server = nullptr;
  return rc;
}
