#pragma once

/// @file queue.h
/// The server's bounded MPMC work queue.  Admission control lives here:
/// try_push() is non-blocking and returns false when the queue is full (or
/// closed), so the I/O loop can shed a run request with a structured
/// overload rejection instead of buffering requests without bound.
/// Workers block in pop(); close() starts the drain — already-admitted
/// items keep draining (every admitted request gets a response), new
/// pushes are refused, and pop() returns nullopt once the queue runs dry.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace carbon::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Admit @p value unless the queue is at capacity or closed.  Never
  /// blocks — a full queue is the caller's signal to shed load.
  bool try_push(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Block until an item is available or the queue is closed *and* empty
  /// (nullopt — the worker's signal to exit).  Items admitted before
  /// close() still drain.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Refuse new pushes and wake every blocked pop().  Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace carbon::serve
