#include "phys/parallel.h"

#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "phys/require.h"

namespace carbon::phys {

int default_num_threads() {
  if (const char* env = std::getenv("CARBON_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

namespace {
/// Set while the current thread is inside ThreadPool work (a pool worker's
/// drain or the caller's participation).  A nested run() sees it and
/// executes inline instead of deadlocking on / corrupting the active batch.
thread_local bool t_in_pool_run = false;
}  // namespace

struct ThreadPool::Impl {
  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable batch_done;
  std::vector<std::thread> workers;

  // Current batch: task indices [next, num_tasks) remain to be claimed.
  const std::function<void(int)>* task = nullptr;
  int next = 0;
  int num_tasks = 0;
  int pending = 0;  // claimed-but-unfinished + unclaimed tasks
  std::uint64_t generation = 0;
  std::exception_ptr first_error;
  bool stopping = false;

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] {
          return stopping || (task != nullptr && generation != seen_generation);
        });
        if (stopping) return;
        seen_generation = generation;
      }
      t_in_pool_run = true;
      drain(seen_generation);
      t_in_pool_run = false;
    }
  }

  /// Claim one task of batch @p gen under the lock.  Returns false when the
  /// batch is exhausted — or was replaced by a newer one, which is how a
  /// worker that slept through the end of its batch is kept from touching
  /// the next batch's (possibly dangling) task pointer unsynchronized.
  bool claim(std::uint64_t gen, int* index,
             const std::function<void(int)>** fn) {
    std::lock_guard<std::mutex> lock(mutex);
    if (generation != gen || task == nullptr || next >= num_tasks) {
      return false;
    }
    *index = next++;
    *fn = task;  // stays valid while this batch has pending tasks
    return true;
  }

  /// Claim and run tasks until batch @p gen is exhausted.
  void drain(std::uint64_t gen) {
    int i = 0;
    const std::function<void(int)>* fn = nullptr;
    while (claim(gen, &i, &fn)) {
      int finished = 1;  // tasks this loop retires (claimed + skipped)
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
        // Fail fast: the batch's result is already doomed to rethrow, so
        // retire the unclaimed remainder instead of running work whose
        // outcome will be discarded.  Tasks other workers have already
        // claimed still finish and are counted by their own drain loops.
        finished += num_tasks - next;
        next = num_tasks;
      }
      std::lock_guard<std::mutex> lock(mutex);
      if ((pending -= finished) == 0) batch_done.notify_all();
    }
  }
};

ThreadPool::ThreadPool(int num_workers)
    : impl_(new Impl), num_workers_(num_workers) {
  impl_->workers.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->work_ready.notify_all();
  for (auto& w : impl_->workers) w.join();
  delete impl_;
}

ThreadPool& ThreadPool::instance() {
  // The caller participates in every batch, so keep one fewer persistent
  // worker than the target concurrency.
  static ThreadPool pool(default_num_threads() - 1);
  return pool;
}

void ThreadPool::run(int num_tasks, const std::function<void(int)>& task) {
  if (num_tasks <= 0) return;
  // Nested use — a task body (or another thread while a batch is active)
  // calling back into the pool — degrades to inline serial execution: the
  // nested batch still completes with identical task coverage, it just
  // does not fan out.  This is what lets a pool task compile a tabulated
  // model (whose grid build is itself a parallel_for) instead of dying on
  // a reentrancy precondition.
  std::uint64_t gen = 0;
  bool inline_run = t_in_pool_run || num_tasks == 1 || num_workers_ == 0;
  if (!inline_run) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->task != nullptr) {
      inline_run = true;  // another thread's batch is active
    } else {
      impl_->task = &task;
      impl_->next = 0;
      impl_->num_tasks = num_tasks;
      impl_->pending = num_tasks;
      gen = ++impl_->generation;
    }
  }
  if (inline_run) {
    for (int i = 0; i < num_tasks; ++i) task(i);
    return;
  }
  impl_->work_ready.notify_all();
  t_in_pool_run = true;
  impl_->drain(gen);  // caller participates
  t_in_pool_run = false;
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->batch_done.wait(lock, [&] { return impl_->pending == 0; });
    impl_->task = nullptr;
    error = impl_->first_error;
    impl_->first_error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(long n, const std::function<void(long, long)>& body,
                  int num_threads) {
  if (n <= 0) return;
  int threads = num_threads > 0 ? num_threads : default_num_threads();
  if (threads > n) threads = static_cast<int>(n);
  if (threads <= 1) {
    body(0, n);
    return;
  }
  // Contiguous blocks; boundaries depend only on (n, threads).
  const auto block = [n, threads](int t) {
    return n * t / threads;  // t in [0, threads]
  };
  ThreadPool::instance().run(threads, [&](int t) {
    const long begin = block(t);
    const long end = block(t + 1);
    if (begin < end) body(begin, end);
  });
}

void parallel_for_each(long n, const std::function<void(long)>& body,
                       int num_threads) {
  parallel_for(
      n,
      [&](long begin, long end) {
        for (long i = begin; i < end; ++i) body(i);
      },
      num_threads);
}

void parallel_for_seeded(long n, std::uint64_t seed,
                         const std::function<void(long, long, Rng&)>& body,
                         int num_threads, long grain) {
  if (n <= 0) return;
  CARBON_REQUIRE(grain >= 1, "grain must be at least 1");
  const long chunks = (n + grain - 1) / grain;
  parallel_for_each(
      chunks,
      [&](long c) {
        Rng rng(stream_seed(seed, static_cast<std::uint64_t>(c)));
        body(n * c / chunks, n * (c + 1) / chunks, rng);
      },
      num_threads);
}

std::uint64_t stream_seed(std::uint64_t base_seed, std::uint64_t stream) {
  // splitmix64 finalizer over the combined state; decorrelates adjacent
  // streams even for small seeds and indices.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace carbon::phys
