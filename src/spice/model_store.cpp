#include "spice/model_store.h"

#include <utility>

namespace carbon::spice {

ModelStore& ModelStore::instance() {
  static ModelStore store;
  return store;
}

device::DeviceModelPtr ModelStore::get(
    const std::string& key,
    const std::function<device::DeviceModelPtr()>& build) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    const std::shared_ptr<Build> b = it->second.build;
    built_.wait(lock, [&] { return b->done; });
    if (b->error) std::rethrow_exception(b->error);
    return b->model;
  }

  ++builds_;
  const auto b = std::make_shared<Build>();
  lru_.push_front(key);
  entries_[key] = {b, lru_.begin()};
  while (entries_.size() > static_cast<std::size_t>(kModelStoreCapacity)) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  lock.unlock();

  device::DeviceModelPtr model;
  std::exception_ptr error;
  try {
    model = build();
  } catch (...) {
    error = std::current_exception();
  }

  lock.lock();
  b->model = model;
  b->error = error;
  b->done = true;
  if (error) {
    const auto failed = entries_.find(key);
    if (failed != entries_.end() && failed->second.build == b) {
      lru_.erase(failed->second.lru_pos);
      entries_.erase(failed);
    }
  }
  lock.unlock();
  built_.notify_all();
  if (error) std::rethrow_exception(error);
  return model;
}

ModelStoreStats ModelStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {hits_, builds_, evictions_, static_cast<long>(entries_.size())};
}

}  // namespace carbon::spice
