// Deterministic fault injection.
//
// Real multi-gigahertz test hardware is characterized by how it degrades:
// PECL mux inputs go stuck or drop out, delay lines drift, clock trees
// glitch, optical links lose signal, fabric nodes die, probe contacts
// lift. A FaultPlan is a seeded, explicit schedule of such faults that the
// signal-chain components consult at well-defined simulation ticks (bit
// index, packet slot, touchdown number ...). Two rules keep the layer
// compatible with the serial==parallel golden-pin guarantees:
//
//  1. An empty plan changes nothing: components skip every fault branch and
//     consume exactly the RNG draws they consume today, so all outputs stay
//     byte-identical to an un-faulted build.
//  2. Fault decisions are keyed only on (plan seed, component name, tick),
//     never on execution order, so a faulted run is reproducible at every
//     MGT_THREADS setting.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace mgt::fault {

/// The injectable fault classes across the signal chain.
enum class FaultKind {
  kMuxStuckAt,        // serializer lane forced to a fixed value
  kMuxDropout,        // serializer lane contributes no transitions
  kDelayDrift,        // programmable delay line drifts from its codes
  kClockGlitch,       // clock edges sporadically displaced
  kLossOfSignal,      // optical channel power lost (link dark)
  kNodeFailure,       // vortex fabric node dead (packets rerouted/dropped)
  kDeadPin,           // mini-tester pin driver/receiver dead
  kProbeContactLoss,  // probe-card contact lifted at a die site
  kFrameCorruption,   // link-layer bit flips (severity = flip probability)
  kSyncLoss,          // frame-bit violation forcing receiver resync
  kTelemetryCorruption,  // telemetry channel flips packet bits
  kTelemetryTruncation,  // telemetry channel cuts packets short
  kTelemetryReorder,     // telemetry channel swaps adjacent packets
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// One scheduled fault. Semantics of `index`, `tick` and `severity` are
/// owned by the component that consumes the spec:
///
///   component        kinds                      index        tick
///   "serializer"     MuxStuckAt / MuxDropout    lane         serial bit
///   "clock"          ClockGlitch                (unused)     edge count
///   "clocktree"      ClockGlitch                load         edge count
///   "strobe"/"..."   DelayDrift                 (unused)     edge count
///   "optics"         LossOfSignal               channel      send count
///   "fabric"         NodeFailure                flat node    packet slot
///   "array"          DeadPin / ProbeContactLoss site         touchdown
///
/// `severity` is a 0..1 knob: drift distance, glitch probability/amplitude,
/// or the affected fraction when `index` is kAllIndices.
struct FaultSpec {
  /// `index` wildcard: the fault applies to every lane/channel/node/site.
  static constexpr std::size_t kAllIndices = ~static_cast<std::size_t>(0);
  /// `duration` value meaning "never ends".
  static constexpr std::uint64_t kForever = ~static_cast<std::uint64_t>(0);

  FaultKind kind = FaultKind::kMuxStuckAt;
  std::string component;
  std::size_t index = kAllIndices;
  double severity = 1.0;
  std::uint64_t start = 0;
  std::uint64_t duration = kForever;
  /// Level a MuxStuckAt lane is pinned to.
  bool stuck_high = false;

  /// True when the fault window covers `tick`.
  [[nodiscard]] bool active_at(std::uint64_t tick) const {
    return tick >= start &&
           (duration == kForever || tick - start < duration);
  }

  /// True when the fault applies to element `index` at `tick`.
  [[nodiscard]] bool applies(std::uint64_t tick, std::size_t element) const {
    return active_at(tick) &&
           (index == kAllIndices || index == element);
  }
};

/// The slice of a FaultPlan one component holds: its own specs plus a
/// component-scoped seed for any randomized fault behavior. Value type; a
/// default-constructed instance means "healthy" and every query is false.
class ComponentFaults {
public:
  ComponentFaults() = default;

  /// True when any fault is scheduled for this component.
  [[nodiscard]] bool any() const { return !specs_.empty(); }
  [[nodiscard]] bool any(FaultKind kind) const;

  /// True when a `kind` fault covers `tick` (and element `index`, if given).
  [[nodiscard]] bool active(FaultKind kind, std::uint64_t tick) const;
  [[nodiscard]] bool active(FaultKind kind, std::uint64_t tick,
                            std::size_t index) const;

  /// Largest severity among matching active faults (0.0 when none).
  [[nodiscard]] double severity(FaultKind kind, std::uint64_t tick) const;
  [[nodiscard]] double severity(FaultKind kind, std::uint64_t tick,
                                std::size_t index) const;

  /// All scheduled specs, for components with richer semantics.
  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }

  /// Deterministic per-tick randomness for fault behavior: the stream
  /// depends only on (plan seed, component name, salt), never on thread
  /// scheduling or call order.
  [[nodiscard]] Rng rng(std::uint64_t salt) const;

private:
  friend class FaultPlan;
  ComponentFaults(std::uint64_t component_seed, std::vector<FaultSpec> specs)
      : component_seed_(component_seed), specs_(std::move(specs)) {}

  std::uint64_t component_seed_ = 0;
  std::vector<FaultSpec> specs_;
};

/// A deterministic schedule of faults for a whole system. Built once,
/// carried by configuration structs, and sliced per component at
/// construction time via component(). Copyable so configs stay value types.
class FaultPlan {
public:
  explicit FaultPlan(std::uint64_t seed = 0) : seed_(seed) {}

  /// Schedules one fault; returns *this so plans compose fluently.
  FaultPlan& schedule(FaultSpec spec);

  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }

  /// The slice of this plan addressed to `component` (exact name match).
  [[nodiscard]] ComponentFaults component(std::string_view name) const;

private:
  std::uint64_t seed_ = 0;
  std::vector<FaultSpec> specs_;
};

}  // namespace mgt::fault
