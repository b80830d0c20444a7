#include "spice/mna.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/trace.h"
#include "phys/require.h"
#include "spice/analyses.h"  // SolveRecord, PhaseClock

namespace carbon::spice {

bool MnaSystem::matches(const Circuit& ckt) const {
  // Keyed on the circuit's process-unique uid (not its address: a freshly
  // constructed circuit can reuse a destroyed one's storage) plus its
  // topology revision.
  return uid_ == ckt.uid() && revision_ == ckt.revision() &&
         n_ == ckt.num_unknowns();
}

void MnaSystem::build(Circuit& ckt) {
  if (matches(ckt)) return;

  ckt.assign_branches();
  n_ = ckt.num_unknowns();
  n_nodes_ = ckt.num_nodes();
  CARBON_REQUIRE(n_ > 0, "empty circuit");

  // --- capture pass: record every element's stamp footprint.  Captured
  // with transient=true so capacitor companion entries are part of the
  // pattern; DC stamps then use a prefix of the recorded sequence.
  jac_coords_.clear();
  rhs_rows_.clear();
  const auto& elements = ckt.elements();
  jac_off_.assign(elements.size() + 1, 0);
  rhs_off_.assign(elements.size() + 1, 0);

  const std::vector<double> x_probe(n_, 0.0);
  StampContext cap;
  cap.capture_jac = &jac_coords_;
  cap.capture_rhs = &rhs_rows_;
  cap.x = &x_probe;
  cap.transient = true;
  cap.dt_s = 1.0;
  for (size_t e = 0; e < elements.size(); ++e) {
    elements[e]->stamp(cap);
    jac_off_[e + 1] = static_cast<int>(jac_coords_.size());
    rhs_off_[e + 1] = static_cast<int>(rhs_rows_.size());
  }

  // --- pattern + storage.
  rhs_.assign(n_, 0.0);
  std::vector<std::pair<int, int>> coords;
  coords.reserve(jac_coords_.size() + n_nodes_);
  for (const auto& [r, c] : jac_coords_) {
    if (r > 0 && c > 0) coords.emplace_back(r - 1, c - 1);
  }
  // Every node diagonal joins the pattern unconditionally so the
  // pseudo-transient shunts of add_node_shunts() are plain value writes
  // (from_coords merges duplicates, so this is free when an element
  // already stamps the position).
  for (int i = 0; i < n_nodes_; ++i) coords.emplace_back(i, i);
  smat_ = phys::SparseMatrix::from_coords(n_, std::move(coords));
  slu_ = phys::SparseLu();  // drop any stale pattern analysis

  // --- resolve the footprints to direct value pointers.
  jac_slots_.resize(jac_coords_.size());
  for (size_t t = 0; t < jac_coords_.size(); ++t) {
    const auto [r, c] = jac_coords_[t];
    jac_slots_[t] = (r <= 0 || c <= 0)
                        ? &jac_trash_
                        : &smat_.values()[smat_.slot(r - 1, c - 1)];
  }
  rhs_slots_.resize(rhs_rows_.size());
  for (size_t t = 0; t < rhs_rows_.size(); ++t) {
    const int r = rhs_rows_[t];
    rhs_slots_[t] = r <= 0 ? &rhs_trash_ : &rhs_[r - 1];
  }
  node_diag_.resize(n_nodes_);
  for (int i = 0; i < n_nodes_; ++i) {
    node_diag_[i] = &smat_.values()[smat_.slot(i, i)];
  }

  // --- static/dynamic split: classify every element, then stamp the
  // constant-Jacobian ones once into the baseline that restore_baseline()
  // memcpy's back each iteration.  Elements with a constant Jacobian and
  // no RHS footprint (resistors) disappear from the stamp loop entirely.
  stamp_mode_.assign(elements.size(), StampMode::kDynamic);
  static_skipped_ = 0;
  for (size_t e = 0; e < elements.size(); ++e) {
    if (!elements[e]->jacobian_is_constant()) continue;
    const bool has_rhs = rhs_off_[e + 1] > rhs_off_[e];
    stamp_mode_[e] = has_rhs ? StampMode::kStaticRhs : StampMode::kSkip;
    if (!has_rhs) ++static_skipped_;
  }

  ckt_ = &ckt;
  stamp_static_baseline();

  uid_ = ckt.uid();
  revision_ = ckt.revision();
  ++builds_;
}

void MnaSystem::stamp_static_baseline() {
  CARBON_REQUIRE(ckt_ != nullptr, "stamp_static_baseline before build");
  zero();
  {
    const std::vector<double> x_probe(n_, 0.0);
    const auto& elements = ckt_->elements();
    StampContext base;
    base.x = &x_probe;  // static stamps must not read the iterate
    base.transient = true;
    base.dt_s = 1.0;
    for (size_t e = 0; e < elements.size(); ++e) {
      if (stamp_mode_[e] == StampMode::kDynamic) continue;
      base.jac_slots = jac_slots_.data() + jac_off_[e];
      base.rhs_slots = rhs_slots_.data() + rhs_off_[e];
      base.jac_cursor = 0;
      base.rhs_cursor = 0;
#ifndef NDEBUG
      base.debug_jac = jac_coords_.data() + jac_off_[e];
      base.debug_rhs = rhs_rows_.data() + rhs_off_[e];
      base.debug_jac_count = jac_off_[e + 1] - jac_off_[e];
      base.debug_rhs_count = rhs_off_[e + 1] - rhs_off_[e];
#endif
      elements[e]->stamp(base);
    }
  }
  baseline_ = smat_.values();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);  // drop baseline RHS writes

  // Both the factored image and any held factorization belong to the old
  // element values.
  factored_values_.clear();
  factored_valid_ = false;
}

void MnaSystem::refresh_baseline() { stamp_static_baseline(); }

void MnaSystem::zero() {
  smat_.zero_values();
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  jac_trash_ = 0.0;
  rhs_trash_ = 0.0;
}

void MnaSystem::restore_baseline() {
  std::memcpy(smat_.values().data(), baseline_.data(),
              baseline_.size() * sizeof(double));
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  jac_trash_ = 0.0;
  rhs_trash_ = 0.0;
}

void MnaSystem::stamp_all(const Circuit& ckt, StampContext& ctx) {
  CARBON_REQUIRE(ckt_ == &ckt && uid_ == ckt.uid(),
                 "MnaSystem stamped with a foreign circuit");
  ctx.capture_jac = nullptr;
  ctx.capture_rhs = nullptr;
  PhaseClock eval_clock(ctx.record, /*traced=*/false);
  const auto& elements = ckt.elements();
  for (size_t e = 0; e < elements.size(); ++e) {
    const StampMode mode = stamp_mode_[e];
    if (mode == StampMode::kSkip) continue;  // fully in the static baseline
    ctx.suppress_jac = mode == StampMode::kStaticRhs;
    ctx.jac_slots = jac_slots_.data() + jac_off_[e];
    ctx.rhs_slots = rhs_slots_.data() + rhs_off_[e];
    ctx.jac_cursor = 0;
    ctx.rhs_cursor = 0;
#ifndef NDEBUG
    ctx.debug_jac = jac_coords_.data() + jac_off_[e];
    ctx.debug_rhs = rhs_rows_.data() + rhs_off_[e];
    ctx.debug_jac_count = jac_off_[e + 1] - jac_off_[e];
    ctx.debug_rhs_count = rhs_off_[e + 1] - rhs_off_[e];
#endif
    // Dynamic elements are the device-eval phase; static-RHS sources and
    // baseline elements are assembly bookkeeping and stay in kStamp.
    const bool dynamic = mode == StampMode::kDynamic;
    if (dynamic) eval_clock.start();
    elements[e]->stamp(ctx);
    if (dynamic) eval_clock.lap(SolveRecord::kEval);
  }
  ctx.jac_slots = nullptr;
  ctx.rhs_slots = nullptr;
  ctx.suppress_jac = false;
}

void MnaSystem::add_node_shunts(double geq, const std::vector<double>& x_ref) {
  CARBON_REQUIRE(static_cast<int>(x_ref.size()) >= n_nodes_,
                 "add_node_shunts: reference state too short");
  for (int i = 0; i < n_nodes_; ++i) {
    *node_diag_[i] += geq;
    rhs_[i] += geq * x_ref[i];
  }
}

bool MnaSystem::factor() {
  failure_ = FactorFailure{};
  const double* vals = smat_.values().data();
  const size_t nvals = static_cast<size_t>(smat_.nnz());
  // The RHS never enters the Jacobian compare below, so a poisoned residual
  // must be caught here or it rides an otherwise valid factorization
  // straight into the Newton update.
  for (int i = 0; i < n_; ++i) {
    if (!std::isfinite(rhs_[i])) {
      failure_ = {FactorFailure::Kind::kNonFinite, i};
      factored_valid_ = false;
      return false;
    }
  }
  // Shamanskii fast path: a bit-identical Jacobian (all devices bypassed,
  // same companion conductances) reuses the held factorization outright.
  // The O(nnz) compare is noise next to the O(fill-flops) refactor it
  // saves, and bitwise equality keeps the reuse exact.  Matching values
  // are known finite — they factored successfully last time — so the
  // non-finite scan is needed only past this point.
  if (factored_valid_ && factored_values_.size() == nvals &&
      std::memcmp(factored_values_.data(), vals,
                  nvals * sizeof(double)) == 0) {
    ++factor_skips_;
    if (obs::Tracer* trc = obs::tracer()) {
      trc->instant("factor-skip", obs::now_ns());
    }
    return true;
  }
  for (size_t t = 0; t < nvals; ++t) {
    if (!std::isfinite(vals[t])) {
      const auto& rp = smat_.row_ptr();
      const int row = static_cast<int>(
          std::upper_bound(rp.begin(), rp.end(), static_cast<int>(t)) -
          rp.begin() - 1);
      failure_ = {FactorFailure::Kind::kNonFinite, row};
      factored_valid_ = false;
      return false;
    }
  }
  try {
    obs::ScopedSpan refactor_span("numeric-refactor");
    slu_.factor(smat_);
  } catch (const phys::SingularMatrixError& e) {
    failure_ = {e.kind() == phys::SingularMatrixError::Kind::kNonFinite
                    ? FactorFailure::Kind::kNonFinite
                    : FactorFailure::Kind::kSingular,
                e.row()};
    factored_valid_ = false;
    return false;
  } catch (const phys::ConvergenceError&) {
    failure_ = {FactorFailure::Kind::kSingular, -1};
    factored_valid_ = false;
    return false;
  }
  factored_values_.assign(vals, vals + nvals);
  factored_valid_ = true;
  return true;
}

void MnaSystem::solve_in_place(std::vector<double>& bx) const {
  slu_.solve_in_place(bx);
}

void MnaSystem::copy_rhs(std::vector<double>& out) const {
  out.resize(n_);
  std::copy(rhs_.begin(), rhs_.end(), out.begin());
}

}  // namespace carbon::spice
