#pragma once

/// @file faulty.h
/// Deterministic fault injection for robustness testing: a decorator that
/// wraps any compact model and misbehaves on command — NaN evaluations and
/// artificial stalls that simulate a hung model.
///
/// `carbon_simd --test-models` registers faulty devices (`nanfet`,
/// `hangfet`) so the service's solve-failure, deadline and disconnect
/// paths can be driven from a deck; the session, server and convergence
/// tests use it the same way.

#include <atomic>
#include <string>

#include "device/ivmodel.h"

namespace carbon::device {

/// What the decorator does once armed.
enum class FaultKind {
  kNone = 0,     ///< transparent pass-through
  kNanEval,      ///< NaN current/conductances (permanent once triggered)
  kStall,        ///< sleeps stall_s per eval(): a hung / pathologically
                 ///< slow model, used to exercise deadlines
};

/// A fault and when it triggers.
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  /// eval() calls served faithfully before the fault arms (0 = from the
  /// first call).  Lets a transient run fail mid-flight rather than at the
  /// operating point.
  long trigger_evals = 0;
  double stall_s = 1e-3;  ///< kStall sleep per eval [s]
};

/// The decorator.  Thread-safe: the eval counter is atomic, so one
/// instance may be shared by the FETs of a circuit (they then share
/// the trigger budget, which is usually what a fault scenario wants).
class FaultyModelDecorator final : public IDeviceModel {
 public:
  FaultyModelDecorator(DeviceModelPtr base, FaultSpec spec);

  double drain_current(double vgs, double vds) const override;
  DeviceEval eval(double vgs, double vds) const override;
  const std::string& name() const override { return name_; }
  Polarity polarity() const override { return base_->polarity(); }
  double width_normalization() const override {
    return base_->width_normalization();
  }
  NoiseParams noise_params() const override { return base_->noise_params(); }

 private:
  bool armed_after_count() const;

  DeviceModelPtr base_;
  FaultSpec spec_;
  std::string name_;
  mutable std::atomic<long> evals_{0};
};

/// Convenience factory.
DeviceModelPtr with_fault(DeviceModelPtr base, FaultSpec spec);

}  // namespace carbon::device
