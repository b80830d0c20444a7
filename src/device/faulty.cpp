#include "device/faulty.h"

#include <chrono>
#include <limits>
#include <thread>

#include "phys/require.h"

namespace carbon::device {

namespace {

const char* fault_tag(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kNanEval: return "nan";
    case FaultKind::kStall: return "stall";
  }
  return "?";
}

}  // namespace

FaultyModelDecorator::FaultyModelDecorator(DeviceModelPtr base, FaultSpec spec)
    : base_(std::move(base)), spec_(spec) {
  CARBON_REQUIRE(base_ != nullptr, "faulty decorator needs a base model");
  name_ = base_->name() + "+fault(" + fault_tag(spec_.kind) + ")";
}

bool FaultyModelDecorator::armed_after_count() const {
  // One fetch_add per eval; the fault is armed once the pre-fault budget
  // is exhausted.  Relaxed order is fine: the count only gates behaviour
  // of this model, never synchronizes other memory.
  const long n = evals_.fetch_add(1, std::memory_order_relaxed);
  return n >= spec_.trigger_evals;
}

DeviceEval FaultyModelDecorator::eval(double vgs, double vds) const {
  const bool armed = armed_after_count();
  if (!armed || spec_.kind == FaultKind::kNone) {
    return base_->eval(vgs, vds);
  }
  switch (spec_.kind) {
    case FaultKind::kNanEval: {
      DeviceEval e;
      e.id = std::numeric_limits<double>::quiet_NaN();
      e.gm = std::numeric_limits<double>::quiet_NaN();
      e.gds = std::numeric_limits<double>::quiet_NaN();
      return e;
    }
    case FaultKind::kStall:
      std::this_thread::sleep_for(
          std::chrono::duration<double>(spec_.stall_s));
      return base_->eval(vgs, vds);
    case FaultKind::kNone:
      break;
  }
  return base_->eval(vgs, vds);
}

double FaultyModelDecorator::drain_current(double vgs, double vds) const {
  // Route through eval() so the fault accounting and behaviour are
  // identical no matter which entry point a consumer uses.
  return eval(vgs, vds).id;
}

DeviceModelPtr with_fault(DeviceModelPtr base, FaultSpec spec) {
  return std::make_shared<FaultyModelDecorator>(std::move(base), spec);
}

}  // namespace carbon::device
