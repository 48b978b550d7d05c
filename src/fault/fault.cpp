#include "fault/fault.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mgt::fault {

namespace {

/// FNV-1a over the component name: gives every component a stable 64-bit
/// identity that, mixed with the plan seed, decorrelates its fault streams
/// from every other component's.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kMuxStuckAt:
      return "mux-stuck-at";
    case FaultKind::kMuxDropout:
      return "mux-dropout";
    case FaultKind::kDelayDrift:
      return "delay-drift";
    case FaultKind::kClockGlitch:
      return "clock-glitch";
    case FaultKind::kLossOfSignal:
      return "loss-of-signal";
    case FaultKind::kNodeFailure:
      return "node-failure";
    case FaultKind::kDeadPin:
      return "dead-pin";
    case FaultKind::kProbeContactLoss:
      return "probe-contact-loss";
    case FaultKind::kFrameCorruption:
      return "frame-corruption";
    case FaultKind::kSyncLoss:
      return "sync-loss";
    case FaultKind::kTelemetryCorruption:
      return "telemetry-corruption";
    case FaultKind::kTelemetryTruncation:
      return "telemetry-truncation";
    case FaultKind::kTelemetryReorder:
      return "telemetry-reorder";
  }
  return "unknown";
}

bool ComponentFaults::any(FaultKind kind) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind) {
      return true;
    }
  }
  return false;
}

bool ComponentFaults::active(FaultKind kind, std::uint64_t tick) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind && spec.active_at(tick)) {
      return true;
    }
  }
  return false;
}

bool ComponentFaults::active(FaultKind kind, std::uint64_t tick,
                             std::size_t index) const {
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind && spec.applies(tick, index)) {
      return true;
    }
  }
  return false;
}

double ComponentFaults::severity(FaultKind kind, std::uint64_t tick) const {
  double worst = 0.0;
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind && spec.active_at(tick)) {
      worst = std::max(worst, spec.severity);
    }
  }
  return worst;
}

double ComponentFaults::severity(FaultKind kind, std::uint64_t tick,
                                 std::size_t index) const {
  double worst = 0.0;
  for (const FaultSpec& spec : specs_) {
    if (spec.kind == kind && spec.applies(tick, index)) {
      worst = std::max(worst, spec.severity);
    }
  }
  return worst;
}

Rng ComponentFaults::rng(std::uint64_t salt) const {
  return util::task_rng(component_seed_, salt);
}

FaultPlan& FaultPlan::schedule(FaultSpec spec) {
  MGT_CHECK(!spec.component.empty(), "fault spec needs a component name");
  MGT_CHECK(spec.severity >= 0.0 && spec.severity <= 1.0,
            "fault severity must be in [0, 1]");
  specs_.push_back(std::move(spec));
  return *this;
}

ComponentFaults FaultPlan::component(std::string_view name) const {
  std::vector<FaultSpec> matching;
  for (const FaultSpec& spec : specs_) {
    if (spec.component == name) {
      matching.push_back(spec);
    }
  }
  return ComponentFaults(util::mix_seed(seed_, fnv1a(name)),
                         std::move(matching));
}

}  // namespace mgt::fault
