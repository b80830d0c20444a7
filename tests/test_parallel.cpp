// The thread-pool / parallel_for utility and the determinism contract of
// the parallel fab Monte Carlo: fixed seed => bit-identical results for any
// thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "fab/devstats.h"
#include "fab/placement.h"
#include "phys/parallel.h"

namespace {

namespace fab = carbon::fab;
namespace phys = carbon::phys;

TEST(ParallelFor, CoversTheRangeExactlyOnce) {
  for (int threads : {1, 2, 4, 7}) {
    std::vector<int> hits(1000, 0);
    phys::parallel_for_each(
        1000, [&](long i) { ++hits[i]; }, threads);
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
        << threads << " threads";
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ParallelFor, BlockedVariantCoversRange) {
  std::atomic<long> sum{0};
  phys::parallel_for(
      10000,
      [&](long begin, long end) {
        long local = 0;
        for (long i = begin; i < end; ++i) local += i;
        sum += local;
      },
      4);
  EXPECT_EQ(sum.load(), 10000L * 9999L / 2);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  int calls = 0;
  phys::parallel_for_each(0, [&](long) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
  phys::parallel_for_each(1, [&](long) { ++calls; }, 4);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(phys::parallel_for_each(
                   100,
                   [](long i) {
                     if (i == 57) throw std::runtime_error("boom");
                   },
                   4),
               std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> ok{0};
  phys::parallel_for_each(10, [&](long) { ++ok; }, 4);
  EXPECT_EQ(ok.load(), 10);
}

TEST(ParallelFor, FailFastRethrowsTheFirstErrorAndRunsNoTaskTwice) {
  // The first task to execute throws.  What the pool guarantees under every
  // interleaving: that error is the one rethrown on the caller, no index
  // runs twice, and the pool runs the next batch in full.  How many other
  // tasks start before the thrower's catch retires the unclaimed remainder
  // depends on scheduling (while one exception unwound under ASan, the
  // other workers ran 99 of 100), so no count is asserted here; the skip is
  // pinned where it is deterministic, in the inline test below.
  auto& pool = phys::ThreadPool::instance();
  std::vector<std::atomic<int>> runs(100);
  std::atomic<bool> thrown{false};
  std::atomic<int> thrower{-1};
  try {
    pool.run(100, [&](int i) {
      ++runs[i];
      if (!thrown.exchange(true)) {
        thrower = i;
        throw std::runtime_error("task " + std::to_string(i) + " dies");
      }
    });
    ADD_FAILURE() << "a throwing batch must rethrow on the caller";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(e.what(), "task " + std::to_string(thrower.load()) + " dies");
  }
  for (int i = 0; i < 100; ++i) EXPECT_LE(runs[i].load(), 1) << "task " << i;
  // The pool survives and runs the next batch in full.
  std::atomic<int> ok{0};
  pool.run(50, [&](int) { ++ok; });
  EXPECT_EQ(ok.load(), 50);
}

TEST(ParallelFor, FailFastStopsAnInlineBatchAtTheThrow) {
  // A batch submitted from inside a pool task runs inline on that thread,
  // in index order, so there the fail-fast skip is exact: no index past
  // the throwing one runs.
  auto& pool = phys::ThreadPool::instance();
  std::vector<int> ran;
  pool.run(2, [&](int outer) {
    if (outer != 0) return;
    EXPECT_THROW(pool.run(10,
                          [&](int i) {
                            ran.push_back(i);
                            if (i == 3) throw std::runtime_error("inner");
                          }),
                 std::runtime_error);
  });
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ParallelFor, NestedCallExecutesInline) {
  // parallel_for from inside a pool task (e.g. an ensemble trial compiling
  // a tabulated model) must degrade to inline execution with full
  // coverage, not deadlock or trip a reentrancy precondition.
  std::atomic<long> total{0};
  phys::parallel_for_each(
      8,
      [&](long) {
        std::atomic<long> inner{0};
        phys::parallel_for_each(
            100, [&](long i) { inner += i; }, 4);
        EXPECT_EQ(inner.load(), 100L * 99L / 2);
        total += inner.load();
      },
      4);
  EXPECT_EQ(total.load(), 8 * (100L * 99L / 2));
}

TEST(ParallelFor, NestedCallPropagatesExceptions) {
  // An exception from a nested (inline) parallel_for surfaces through the
  // outer batch as usual.
  EXPECT_THROW(phys::parallel_for_each(
                   4,
                   [&](long outer) {
                     phys::parallel_for_each(
                         10,
                         [&](long i) {
                           if (outer == 2 && i == 5) {
                             throw std::runtime_error("nested boom");
                           }
                         },
                         4);
                   },
                   4),
               std::runtime_error);
  std::atomic<int> ok{0};
  phys::parallel_for_each(10, [&](long) { ++ok; }, 4);
  EXPECT_EQ(ok.load(), 10);
}

TEST(StreamSeed, DecorrelatesAdjacentStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    seeds.insert(phys::stream_seed(42, i));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions
  // Different base seeds give different streams.
  EXPECT_NE(phys::stream_seed(1, 0), phys::stream_seed(2, 0));
}

bool sites_identical(const std::vector<fab::DeviceSite>& a,
                     const std::vector<fab::DeviceSite>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tubes.size() != b[i].tubes.size()) return false;
    for (size_t t = 0; t < a[i].tubes.size(); ++t) {
      const auto& ta = a[i].tubes[t];
      const auto& tb = b[i].tubes[t];
      if (ta.chirality.n != tb.chirality.n ||
          ta.chirality.m != tb.chirality.m ||
          ta.misalignment_deg != tb.misalignment_deg ||  // bit-for-bit
          ta.bridges_channel != tb.bridges_channel) {
        return false;
      }
    }
  }
  return true;
}

TEST(ParallelMonteCarlo, TrenchAssemblyThreadCountInvariant) {
  const fab::ChiralityPopulation pop(1.4e-9, 0.2e-9);
  fab::TrenchAssemblyModel model;
  const auto one = model.run_parallel(pop, 5000, 99, 1);
  for (int threads : {2, 3, 8}) {
    EXPECT_TRUE(sites_identical(one, model.run_parallel(pop, 5000, 99,
                                                        threads)))
        << threads << " threads";
  }
  // And a different seed actually changes the draw.
  EXPECT_FALSE(sites_identical(one, model.run_parallel(pop, 5000, 100, 1)));
}

TEST(ParallelMonteCarlo, QuartzGrowthThreadCountInvariant) {
  const fab::ChiralityPopulation pop(1.4e-9, 0.25e-9);
  fab::QuartzGrowthModel model;
  const auto one = model.run_parallel(pop, 2000, 7, 1.0, 1);
  EXPECT_TRUE(sites_identical(one, model.run_parallel(pop, 2000, 7, 1.0, 4)));
}

TEST(ParallelMonteCarlo, TrenchStatisticsMatchSerialModel) {
  // The parallel variant draws per-site streams, so sequences differ from
  // the serial API — but the physics (fill statistics) must agree.
  const fab::ChiralityPopulation pop(1.4e-9, 0.2e-9);
  fab::TrenchAssemblyModel model;
  const auto sites = model.run_parallel(pop, 20000, 5, 0);
  int empty = 0;
  double tubes = 0;
  for (const auto& s : sites) {
    empty += s.tubes.empty() ? 1 : 0;
    tubes += s.tubes.size();
  }
  const double p_empty_expected =
      (1.0 - model.fill_probability) * std::exp(-model.mean_extra_tubes);
  EXPECT_NEAR(empty / 20000.0, p_empty_expected, 0.01);
  EXPECT_NEAR(tubes / 20000.0,
              model.fill_probability + model.mean_extra_tubes, 0.03);
}

TEST(ParallelMonteCarlo, MeasurementThreadCountInvariant) {
  const fab::ChiralityPopulation pop(1.4e-9, 0.2e-9);
  fab::TrenchAssemblyModel model;
  const auto sites = model.run_parallel(pop, 8000, 31, 0);
  const fab::MeasurementModel mm;
  const auto one = fab::measure_sites_parallel(sites, mm, 77, 1);
  const auto many = fab::measure_sites_parallel(sites, mm, 77, 4);
  ASSERT_EQ(one.size(), many.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].tubes, many[i].tubes);
    EXPECT_EQ(one[i].metallic_tubes, many[i].metallic_tubes);
    EXPECT_EQ(one[i].ion_a, many[i].ion_a);    // bit-for-bit
    EXPECT_EQ(one[i].ioff_a, many[i].ioff_a);  // bit-for-bit
    EXPECT_EQ(one[i].functional, many[i].functional);
  }
  const auto s1 = fab::summarize(one);
  const auto sN = fab::summarize(many);
  EXPECT_EQ(s1.yield, sN.yield);
  EXPECT_EQ(s1.median_on_off, sN.median_on_off);
}

}  // namespace
