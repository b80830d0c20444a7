/// Concurrent SimSessions sharing one immutable ModelRegistry — the
/// threading model of the carbon_simd worker pool, exercised directly so
/// the sanitize-thread CI job can prove it race-free.  Each thread owns
/// its session (sessions are not thread-safe; sharing the registry is the
/// only cross-thread edge) and runs a mixed diet of good decks, parse
/// errors, NaN solve failures and deadline-cancelled solves.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/report.h"
#include "device/alpha_power.h"
#include "device/faulty.h"
#include "phys/cancel.h"
#include "spice/model_store.h"
#include "spice/session.h"

namespace {

namespace sp = carbon::spice;
namespace dev = carbon::device;
using carbon::core::Json;

sp::ModelRegistry shared_registry() {
  sp::ModelRegistry reg;
  auto nfet =
      std::make_shared<dev::AlphaPowerModel>(dev::make_fig2_saturating_params());
  reg["nfet"] = nfet;
  reg["pfet"] = std::make_shared<dev::PTypeMirror>(nfet);
  dev::FaultSpec stall;
  stall.kind = dev::FaultKind::kStall;
  stall.stall_s = 2e-3;
  reg["hangfet"] = dev::with_fault(nfet, stall);
  dev::FaultSpec nan;
  nan.kind = dev::FaultKind::kNanEval;
  reg["nanfet"] = dev::with_fault(nfet, nan);
  return reg;
}

const char kGoodOp[] =
    "v1 in 0 1\nr1 in out 1k\nr2 out 0 1k\n"
    ".op\n.probe none\n.measure op vout value v(out)\n.end\n";

const char kGoodFetDc[] =
    "v1 d 0 1\nv2 g 0 1\nm1 d g 0 nfet\n"
    ".dc v2 0 1 0.1\n.probe none\n.end\n";

const char kParseError[] = "r1 in out\n.op\n.end\n";

const char kNanOp[] = "v1 d 0 1\nv2 g 0 1\nm1 d g 0 nanfet\n.op\n.end\n";

const char kHangTran[] =
    "v1 d 0 1\n"
    "v2 g 0 pulse(0 1 1n 1n 1n 5n 10n)\n"
    "m1 d g 0 hangfet\n"
    "c1 d 0 1p\n"
    ".tran 0.1n 1000n\n.probe none\n.end\n";

TEST(SessionConcurrent, SharedRegistryMixedDecksAcrossThreads) {
  const sp::ModelRegistry registry = shared_registry();
  constexpr int kThreads = 8;
  constexpr int kRounds = 12;

  std::atomic<int> ok{0}, parse{0}, solve_failure{0}, unexpected{0};
  auto worker = [&](int seed) {
    sp::SimSession session(registry);  // copies the shared_ptr map: the
                                       // model objects stay shared
    for (int i = 0; i < kRounds; ++i) {
      const char* deck = nullptr;
      const char* want = nullptr;
      switch ((seed + i) % 4) {
        case 0: deck = kGoodOp; want = "ok"; break;
        case 1: deck = kGoodFetDc; want = "ok"; break;
        case 2: deck = kParseError; want = "parse"; break;
        case 3: deck = kNanOp; want = "solve_failure"; break;
      }
      const Json doc = session.run_deck_text(deck);
      if (doc["ok"].as_bool()) {
        if (std::string(want) == "ok") {
          ++ok;
        } else {
          ++unexpected;
        }
      } else if (doc["error"]["type"].as_string() == want) {
        (std::string(want) == "parse") ? ++parse : ++solve_failure;
      } else {
        ++unexpected;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(ok.load(), kThreads * kRounds / 2);
  EXPECT_EQ(parse.load(), kThreads * kRounds / 4);
  EXPECT_EQ(solve_failure.load(), kThreads * kRounds / 4);
}

TEST(SessionConcurrent, PerThreadDeadlinesCutHungSolves) {
  const sp::ModelRegistry registry = shared_registry();
  constexpr int kThreads = 4;

  std::atomic<int> timeouts{0}, unexpected{0};
  auto worker = [&] {
    sp::SimSession session(registry);
    carbon::phys::CancelToken token;
    token.set_deadline_after(0.05);
    const Json doc = session.run_deck_text(kHangTran, &token);
    if (!doc["ok"].as_bool() &&
        doc["error"]["type"].as_string() == "timeout") {
      ++timeouts;
    } else {
      ++unexpected;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();

  EXPECT_EQ(timeouts.load(), kThreads);
  EXPECT_EQ(unexpected.load(), 0);
}

TEST(SessionConcurrent, SharedParentTokenCancelsEveryThread) {
  // The drain pattern: one parent token, a child per worker; cancelling
  // the parent stops every in-flight solve.
  const sp::ModelRegistry registry = shared_registry();
  constexpr int kThreads = 4;

  carbon::phys::CancelToken parent;
  std::atomic<int> cancelled{0}, unexpected{0};
  auto worker = [&] {
    sp::SimSession session(registry);
    carbon::phys::CancelToken child(&parent);
    const Json doc = session.run_deck_text(kHangTran, &child);
    if (!doc["ok"].as_bool() &&
        doc["error"]["type"].as_string() == "cancelled") {
      ++cancelled;
    } else {
      ++unexpected;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  parent.cancel();
  for (auto& t : threads) t.join();

  EXPECT_EQ(cancelled.load(), kThreads);
  EXPECT_EQ(unexpected.load(), 0);
}

TEST(SessionConcurrent, FirstUsesOfOneModelShareOneBuild) {
  // Every session asks the process-wide model store for the same fresh
  // CNT keys at once: one thread builds each, the others wait for it.
  constexpr int kThreads = 4;
  const std::string deck =
      ".model ncnt cnfet(l=17.7n)\n.model pcnt cpfet(l=17.7n)\n"
      "vdd vdd 0 0.4\nva a 0 0.4\nvb b 0 0\n"
      "mpa out a vdd pcnt\nmpb out b vdd pcnt\n"
      "mna out a mid ncnt\nmnb mid b 0 ncnt\n"
      ".op\n.probe none\n.measure op out value v(out)\n";
  sp::ModelStore& store = sp::ModelStore::instance();
  const long builds0 = store.stats().builds;
  std::atomic<int> ready{0};
  std::vector<std::string> docs(kThreads);
  auto worker = [&](int t) {
    sp::SimSession session;
    ++ready;
    while (ready.load() < kThreads) std::this_thread::yield();
    docs[t] = session.run_deck_text(deck).dump();
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  // One CNT-FET and its table.
  EXPECT_EQ(store.stats().builds - builds0, 2);
  EXPECT_NE(docs[0].find("\"ok\":true"), std::string::npos) << docs[0];
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(docs[t], docs[0]);
}

}  // namespace
