#pragma once

/// @file session.h
/// SimSession: the deck dispatcher behind the netlist-in → results-out
/// surface.  It takes a parsed Deck (netlist_parser.h), runs every
/// analysis request per .step point through the existing engine
/// (operating_point / dc_sweep / transient / ac_sweep / noise_sweep),
/// evaluates the .measure cards against the recorded tables, and renders
/// one structured core::Json document per deck.
///
/// The session is long-lived: a cache keyed on the deck's value-free
/// topology signature holds one instantiated Circuit, one NewtonWorkspace
/// and one AcSystem per topology.  Step points — and repeated decks that
/// differ only in values — *retune* the cached circuit in place (element
/// setters, no revision bump) and refresh the MNA static baseline, so the
/// matrix pattern, slot tables and the sparse symbolic analyses (real and
/// complex) are built exactly once per topology.  The cache is *bounded*:
/// SessionOptions::cache_capacity topologies are kept in LRU order and the
/// least-recently-used entry is evicted beyond that, so a server-lifetime
/// session over arbitrary client decks cannot grow without limit.  The
/// JSON "session" block reports the reuse and eviction counters so callers
/// (and the acceptance tests) can assert the caching actually happened.
///
/// run_deck_text() never throws: malformed decks render as
///   {"ok": false, "error": {"type": "parse", "line": N, ...}}
/// convergence failures as
///   {"ok": false, "error": {"type": "solve_failure", ...}}  (the
/// structured SolveFailure ladder diagnostics), and an expired deadline or
/// a fired cancel token (the optional phys::CancelToken argument, polled
/// through every Newton iteration, transient step and AC/noise frequency
/// point) as
///   {"ok": false, "error": {"type": "timeout" | "cancelled", ...}}
/// so a batch driver — or a server worker — can keep consuming decks
/// after a bad, diverging or hung one.

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>

#include "core/report.h"
#include "phys/cancel.h"
#include "spice/ac.h"
#include "spice/analyses.h"
#include "spice/netlist_parser.h"
#include "spice/smallsignal.h"

namespace carbon::spice {

/// Session-wide options of the JSON rendering.
struct SessionOptions {
  /// Emit the recorded analysis tables ("table" blocks).  Off leaves only
  /// stats + measures — the .probe none behaviour for every deck.
  bool emit_tables = true;
  /// Hard ceiling on rows per emitted table (tables are thinned by the
  /// deck's print interval first; this is the backstop).
  int max_table_rows = 100000;
  /// Topology-cache capacity: at most this many {Circuit, workspace,
  /// AcSystem} entries are kept, evicting least-recently-used beyond it.
  /// Values < 1 clamp to 1 (the most recent topology is always cached).
  int cache_capacity = 16;
  /// Collect the solver phase-time split (stamp/eval/factor/solve, see
  /// SolveRecord) per deck: the session block gains a "phase_ns" object
  /// and phases() accumulates across decks.  Off (the default) keeps the
  /// solve hot path free of clock reads.
  bool collect_phases = false;
};

/// Topology-cache effectiveness counters (monotonic over the session).
struct SessionCacheStats {
  long hits = 0;       ///< decks served by a cached topology
  long misses = 0;     ///< decks that had to instantiate
  long evictions = 0;  ///< LRU entries dropped to respect cache_capacity
  long entries = 0;    ///< current live entries
};

class SimSession {
 public:
  explicit SimSession(ModelRegistry registry = {}, SessionOptions opts = {});

  /// Parse + run one deck.  Never throws; errors become structured JSON.
  /// @p cancel (optional, not owned) is polled through every analysis:
  /// when it fires the document renders as error type "timeout" (deadline)
  /// or "cancelled" (explicit stop) instead of wedging the caller.
  core::Json run_deck_text(const std::string& text,
                           const phys::CancelToken* cancel = nullptr);

  /// Run an already parsed deck.  Throws ParseError on card-level
  /// evaluation errors, SolveFailureError on convergence failure and
  /// phys::CancelledError on a fired @p cancel (run_deck_text wraps all).
  core::Json run_deck(const Deck& deck,
                      const phys::CancelToken* cancel = nullptr);

  const ModelRegistry& registry() const { return registry_; }
  std::size_t cache_entries() const { return cache_.size(); }
  long decks_run() const { return decks_run_; }
  SessionCacheStats cache_stats() const {
    return {cache_hits_, cache_misses_, cache_evictions_,
            static_cast<long>(cache_.size())};
  }
  /// Lifetime phase split (SolveRecord::phase_ns) of the decks run to
  /// completion; all zeros unless SessionOptions::collect_phases.
  const SolveRecord& phases() const { return phases_; }

 private:
  struct CacheEntry {
    std::unique_ptr<Circuit> circuit;
    NewtonWorkspace workspace;
    AcSystem ac;
    /// Deck-model memo (see netlist_parser's resolve_model): unchanged
    /// .model cards keep their built DeviceModelPtr across steps/decks.
    std::map<std::string, device::DeviceModelPtr> model_memo;
    long uses = 0;
    /// Position in lru_ (front = most recently used).
    std::list<std::string>::iterator lru_pos;
  };

  CacheEntry& entry_for(const Deck& deck, bool* cache_hit);

  ModelRegistry registry_;
  SessionOptions opts_;
  std::map<std::string, CacheEntry> cache_;  ///< key: topology signature
  std::list<std::string> lru_;  ///< signatures, most recently used first
  long decks_run_ = 0;
  long cache_hits_ = 0;
  long cache_misses_ = 0;
  long cache_evictions_ = 0;
  SolveRecord phases_;  ///< lifetime phase split (collect_phases)
};

}  // namespace carbon::spice
