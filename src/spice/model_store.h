#pragma once

/// @file model_store.h
/// The process-wide store of the device models that deck-local `.model`
/// cards build.  instantiate() and retune() (netlist_parser.h) resolve
/// every `.model` card through it, so each distinct model is built once
/// per process, whichever session, topology, worker or card name asks.
///
/// A key names the n-type model family and every parameter value the card
/// evaluated to; a CNT-FET table's key adds its span to its device's key,
/// and the table is built from the stored device.  A key never holds a
/// card name, and a p-type card resolves its n-type twin's key and wraps
/// the shared model in device::PTypeMirror.  Stored models are named by
/// their family, so no client ever sees another client's card name.
///
/// Concurrent first requests for one key wait on a single builder.  A
/// build that throws leaves no entry and fails its waiters with the same
/// exception.  The store keeps at most kModelStoreCapacity models and
/// drops the least recently used beyond that; a dropped model lives on in
/// every circuit that holds it.

#include <condition_variable>
#include <exception>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "device/ivmodel.h"

namespace carbon::spice {

/// Most models the store keeps.
inline constexpr int kModelStoreCapacity = 64;

/// Store counters (monotonic over the process, except entries).
struct ModelStoreStats {
  long hits = 0;       ///< requests served by a stored or in-flight model
  long builds = 0;     ///< models built (one per key while it is stored)
  long evictions = 0;  ///< least-recently-used models dropped
  long entries = 0;    ///< models stored now
};

class ModelStore {
 public:
  /// The process-wide store, created on first use.
  static ModelStore& instance();

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  /// The model stored under @p key; on a miss @p build makes it, outside
  /// the store's lock, while later requests for the key wait.  Rethrows
  /// what @p build threw, to the builder and every waiter.
  device::DeviceModelPtr get(
      const std::string& key,
      const std::function<device::DeviceModelPtr()>& build);

  ModelStoreStats stats() const;

 private:
  ModelStore() = default;

  /// One key's build, shared by the builder and its waiters.
  struct Build {
    device::DeviceModelPtr model;
    std::exception_ptr error;
    bool done = false;
  };
  struct Entry {
    std::shared_ptr<Build> build;
    std::list<std::string>::iterator lru_pos;
  };

  mutable std::mutex mu_;
  std::condition_variable built_;  ///< a build finished
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  ///< keys, most recently used first
  long hits_ = 0;
  long builds_ = 0;
  long evictions_ = 0;
};

}  // namespace carbon::spice
