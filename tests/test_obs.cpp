/// Tests of the observability subsystem (src/obs): lock-free histogram
/// recording with exact-count conservation under concurrent writers,
/// snapshot consistency while writers are running (the TSan targets),
/// tracer ring wraparound, Chrome-trace JSON well-formedness, Prometheus
/// exposition, the per-deck phase-time split end-to-end through a
/// SimSession, and the golden schemas of the serve::Server registry and of
/// the documents' stats blocks.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.h"
#include "device/alpha_power.h"
#include "device/ivmodel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "spice/ensemble.h"
#include "spice/session.h"

namespace obs = carbon::obs;
using carbon::core::Json;

namespace {

// ------------------------------------------------------------- histograms

TEST(ObsHistogram, BucketIndexing) {
  obs::Histogram h;
  h.record_ns(500);      // <= 1 us -> bucket 0
  h.record_ns(1000);     // boundary: still bucket 0 (bounds are inclusive)
  h.record_ns(1500);     // <= 2 us -> bucket 1
  h.record_ns(2000);     // boundary of bucket 1
  h.record_ns(4000000);  // 4 ms -> <= 1e-6 * 2^12 s
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.buckets[0], 2);
  EXPECT_EQ(s.buckets[1], 2);
  EXPECT_EQ(s.buckets[12], 1);
  EXPECT_NEAR(s.sum_s, (500 + 1000 + 1500 + 2000 + 4000000) * 1e-9, 1e-12);
}

TEST(ObsHistogram, OverflowBucket) {
  obs::Histogram h;
  // bound(27) ~ 134.2 s; 1000 s must land in the overflow cell.
  h.record(1000.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.buckets[obs::Histogram::kBuckets], 1);
}

/// The TSan target: concurrent record() from many threads, then an exact
/// conservation check — every record lands in exactly one bucket, so the
/// final count must equal the number of calls.
TEST(ObsHistogram, ConcurrentRecordingConservesCount) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Spread records across buckets; value depends on both loop vars
        // so threads do not serialize on one cell.
        h.record_ns(1000LL * (1 + ((t * kPerThread + i) % 4096)));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<long>(kThreads) * kPerThread);
  long from_buckets = 0;
  for (long b : s.buckets) from_buckets += b;
  EXPECT_EQ(from_buckets, s.count);
}

/// Snapshots taken while writers are running must always be internally
/// conserved (count == sum of bucket cells) and monotonically
/// nondecreasing — the snapshot-on-read contract.
TEST(ObsHistogram, SnapshotConsistentUnderWriters) {
  obs::Histogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        h.record_ns(12345);
        h.record_ns(98765432);
      }
    });
  }
  long prev = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto s = h.snapshot();
    long from_buckets = 0;
    for (long b : s.buckets) from_buckets += b;
    ASSERT_EQ(from_buckets, s.count);
    ASSERT_GE(s.count, prev);
    prev = s.count;
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

// --------------------------------------------------------------- registry

TEST(ObsRegistry, SameNameAndLabelsIsSameInstrument) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x_total", "k=\"1\"", "help text");
  obs::Counter& b = reg.counter("x_total", "k=\"1\"");
  obs::Counter& c = reg.counter("x_total", "k=\"2\"");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  EXPECT_EQ(b.load(), 3);
  EXPECT_EQ(c.load(), 0);
}

TEST(ObsRegistry, PrometheusExposition) {
  obs::MetricsRegistry reg;
  reg.counter("req_total", "outcome=\"ok\"", "requests").inc(7);
  reg.gauge("depth", "", "queue depth").set(3);
  obs::Histogram& h = reg.histogram("lat_seconds", "", "latency");
  h.record_ns(1500);
  h.record_ns(1500);
  const std::string text = reg.prometheus();
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total{outcome=\"ok\"} 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("depth 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2"), std::string::npos);
}

TEST(ObsRegistry, JsonExportParsesAndMatchesSchema) {
  obs::MetricsRegistry reg;
  reg.counter("a_total").inc();
  reg.gauge("b");
  reg.histogram("c_seconds").record_ns(1000);
  const Json doc = Json::parse(reg.to_json().dump());
  ASSERT_NE(doc.find("a_total"), nullptr);
  ASSERT_NE(doc.find("c_seconds"), nullptr);
  const auto schema = reg.schema();
  ASSERT_EQ(schema.size(), 3u);
  EXPECT_EQ(schema[0], (std::pair<std::string, std::string>{"a_total",
                                                            "counter"}));
  EXPECT_EQ(schema[1], (std::pair<std::string, std::string>{"b", "gauge"}));
  EXPECT_EQ(schema[2], (std::pair<std::string, std::string>{"c_seconds",
                                                            "histogram"}));
}

// ----------------------------------------------------------------- tracer

TEST(ObsTracer, UnattachedByDefault) {
  EXPECT_EQ(obs::tracer(), nullptr);
  obs::Tracer t;
  {
    obs::TraceAttach attach(&t);
    EXPECT_EQ(obs::tracer(), &t);
    {
      obs::TraceAttach suppress(nullptr);
      EXPECT_EQ(obs::tracer(), nullptr);
    }
    EXPECT_EQ(obs::tracer(), &t);
  }
  EXPECT_EQ(obs::tracer(), nullptr);
}

TEST(ObsTracer, RingWraparoundKeepsLatestWindow) {
  obs::Tracer t(16);  // minimum capacity
  ASSERT_EQ(t.capacity_per_thread(), 16u);
  obs::TraceAttach attach(&t);
  for (int i = 0; i < 100; ++i) t.instant("tick", 1000 + i);
  EXPECT_EQ(t.total_recorded(), 100);
  EXPECT_EQ(t.held(), 16u);
  // The held window is the *latest* 16 events: timestamps 1084..1099.
  const Json doc = Json::parse(t.chrome_json_text());
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 16u);
}

TEST(ObsTracer, ChromeJsonWellFormed) {
  obs::Tracer t;
  obs::TraceAttach attach(&t);
  t.span("solve", 5000, 2500);
  t.instant("reject", 6000);
  {
    obs::ScopedSpan s("scoped");
  }
  const Json doc = Json::parse(t.chrome_json_text());
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 3u);
  bool saw_span = false, saw_instant = false;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    const std::string ph = e.find("ph")->as_string();
    if (ph == "X") {
      saw_span = true;
      ASSERT_NE(e.find("dur"), nullptr);
    } else if (ph == "i") {
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

/// Concurrent recording: one ring per thread, no event lost while the
/// rings have room (the other TSan target).
TEST(ObsTracer, ConcurrentThreadsGetOwnRings) {
  obs::Tracer t(1u << 12);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t] {
      obs::TraceAttach attach(&t);
      for (int k = 0; k < kPerThread; ++k) {
        obs::tracer()->instant("evt", obs::now_ns());
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.total_recorded(),
            static_cast<long long>(kThreads) * kPerThread);
  EXPECT_EQ(t.held(), static_cast<std::size_t>(kThreads) * kPerThread);
  const Json doc = Json::parse(t.chrome_json_text());
  EXPECT_EQ(doc.find("traceEvents")->size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
}

// ------------------------------------------------- session phase split

TEST(ObsPhase, SessionCollectsPhaseSplit) {
  using namespace carbon::device;
  carbon::spice::ModelRegistry reg;
  auto nfet = std::make_shared<AlphaPowerModel>(make_fig2_saturating_params());
  reg["nfet"] = nfet;
  carbon::spice::SessionOptions opts;
  opts.collect_phases = true;
  carbon::spice::SimSession session(std::move(reg), opts);
  const char kDeck[] =
      "v1 d 0 1\nv2 g 0 0.8\nm1 d g 0 nfet\nr1 d 0 10k\n"
      ".op\n.probe none\n.end\n";
  const Json doc = session.run_deck_text(kDeck, nullptr);
  const Json* ok = doc.find("ok");
  ASSERT_NE(ok, nullptr);
  ASSERT_TRUE(ok->as_bool());
  const Json* sess = doc.find("session");
  ASSERT_NE(sess, nullptr);
  const Json* phase = sess->find("phase_ns");
  ASSERT_NE(phase, nullptr) << "collect_phases must emit session.phase_ns";
  for (const char* key : {"stamp", "eval", "factor", "solve"}) {
    ASSERT_NE(phase->find(key), nullptr);
    EXPECT_GE(phase->find(key)->as_double(), 0.0);
  }
  // A Newton solve on a nonlinear deck must spend time in device eval and
  // the factorization; lifetime accumulation must match the deck's split.
  EXPECT_GT(phase->find("eval")->as_double(), 0.0);
  EXPECT_GT(phase->find("factor")->as_double(), 0.0);
  const carbon::spice::SolveRecord& pt = session.phases();
  EXPECT_GT(pt.phase_total(), 0);
  EXPECT_EQ(static_cast<double>(pt.phase_ns[carbon::spice::SolveRecord::kEval]),
            phase->find("eval")->as_double());
}

TEST(ObsPhase, OffByDefaultKeepsSessionBlockClean) {
  carbon::spice::SimSession session;
  const Json doc =
      session.run_deck_text("v1 a 0 1\nr1 a 0 1k\n.op\n.probe none\n.end\n",
                            nullptr);
  const Json* sess = doc.find("session");
  ASSERT_NE(sess, nullptr);
  EXPECT_EQ(sess->find("phase_ns"), nullptr);
  EXPECT_EQ(session.phases().phase_total(), 0);
}

// ------------------------------------------------------ server schema

/// Golden schema: the (family, type) vocabulary the server registers, in
/// registration order.  A rename, retype or reorder is a dashboard /
/// scraper compatibility break and must show up in review as a diff of
/// this list.
TEST(ObsServe, MetricSchemaIsStable) {
  carbon::serve::ServerConfig cfg;
  cfg.workers = 2;
  carbon::serve::Server server(std::move(cfg));  // constructed, not started
  const std::vector<std::pair<std::string, std::string>> kGolden = {
      {"carbon_accepted_total", "counter"},
      {"carbon_rejected_total", "counter"},
      {"carbon_bad_requests_total", "counter"},
      {"carbon_requests_started_total", "counter"},
      {"carbon_requests_total", "counter"},
      {"carbon_health_requests_total", "counter"},
      {"carbon_metrics_requests_total", "counter"},
      {"carbon_disconnects_total", "counter"},
      {"carbon_in_flight", "gauge"},
      {"carbon_queue_depth", "gauge"},
      {"carbon_queue_wait_seconds", "histogram"},
      {"carbon_request_seconds", "histogram"},
      {"carbon_session_cache_total", "counter"},
      {"carbon_phase_ns_total", "counter"},
      {"carbon_session_cache_entries", "gauge"},
  };
  EXPECT_EQ(server.metrics().schema(), kGolden);
}

// -------------------------------------------------- stats block schema

/// Member names of JSON object @p obj in document order.  Json has no
/// member iterator, so they are read back from the compact dump: a key is
/// the string that opens a member at depth 1.
std::vector<std::string> keys_of(const Json& obj) {
  const std::string s = obj.dump();
  std::vector<std::string> keys;
  int depth = 0;
  bool at_key = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '"') {
      std::string str;
      for (++i; s[i] != '"'; ++i) {
        if (s[i] == '\\') ++i;
        str += s[i];
      }
      if (at_key) keys.push_back(str);
      at_key = false;
    } else if (c == '{' || c == '[') {
      at_key = ++depth == 1 && c == '{';
    } else if (c == '}' || c == ']') {
      --depth;
    } else if (c == ',') {
      at_key = depth == 1;
    }
  }
  return keys;
}

/// Golden layout of the solver accounting the documents render: the `.op`
/// stats block, the `.tran` stats block and its nested operating-point
/// block, an ensemble trial's stats and session.phase_ns.  Consumers
/// (deckbench's trace reads iterations, stage, newton_iterations,
/// steps_accepted, steps_rejected_lte and op) index these by name; a
/// rename, drop or reorder must show up in review as a diff of these lists.
TEST(ObsSchema, StatsBlocksAreStable) {
  const std::vector<std::string> kLadder = {
      "stage",          "iterations",           "gmin_rungs",
      "gmin_backtracks", "source_rungs",        "source_backtracks",
      "ptc_steps",      "ptc_rejections",       "used_gmin_stepping",
      "used_source_stepping", "used_pseudo_transient"};
  const std::vector<std::string> kTran = {
      "steps_accepted",  "steps_rejected_lte", "steps_rejected_newton",
      "newton_iterations", "breakpoints_hit",  "jacobian_reuses",
      "orchestrator_recoveries", "dt_smallest", "dt_largest", "op"};

  carbon::spice::SessionOptions opts;
  opts.collect_phases = true;
  carbon::spice::SimSession session({}, opts);
  const Json doc = session.run_deck_text(
      "vin in 0 pulse(0 1 1n 1n 1n 5n 20n)\nr1 in out 1k\nc1 out 0 1p\n"
      ".op\n.tran 0.1n 10n\n.probe none\n.end\n",
      nullptr);
  ASSERT_TRUE(doc["ok"].as_bool()) << doc.dump();
  const Json& analyses = doc["steps"].at(0)["analyses"];
  ASSERT_EQ(analyses.size(), 2u);
  EXPECT_EQ(keys_of(analyses.at(0)["stats"]), kLadder);
  EXPECT_EQ(keys_of(analyses.at(1)["stats"]), kTran);
  EXPECT_EQ(keys_of(analyses.at(1)["stats"]["op"]), kLadder);
  EXPECT_EQ(keys_of(doc["session"]["phase_ns"]),
            (std::vector<std::string>{"stamp", "eval", "factor", "solve"}));

  carbon::spice::EnsembleOptions eo;
  eo.num_threads = 1;
  const auto result = carbon::spice::EnsembleRunner(eo).run(
      1, [](int) {
        return [](carbon::spice::TrialContext&) {
          return carbon::spice::TrialMeasurement{};
        };
      });
  const Json trial = to_json(result.trials.at(0));
  EXPECT_EQ(keys_of(trial["stats"]), kTran);
  EXPECT_EQ(keys_of(trial["stats"]["op"]), kLadder);
}

}  // namespace
