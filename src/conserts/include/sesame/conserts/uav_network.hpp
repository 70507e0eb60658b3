// The paper's hierarchical UAV ConSert network (Fig. 1), built from the
// generic engine in consert.hpp.
//
// Per UAV:
//   - GPS-based localization ConSert: accurate GPS demands good receiver
//     quality AND no active security attack (Security EDDI).
//   - Vision-based localization ConSert: healthy vision sensor AND high
//     SafeML confidence in the perception model.
//   - Communication-based localization ConSert: healthy links to nearby
//     UAVs (the Collaborative Localization channel).
//   - Navigation ConSert: grades achievable navigation accuracy
//     (<0.5 m / <0.75 m / <1 m) from the localization guarantees.
//   - Safety EDDI ConSert: reliability level from SafeDrones.
//   - UAV ConSert: maps navigation + reliability onto the action lattice
//     Continue-and-take-over / Continue / Hold / Return-to-base, with
//     Emergency Land as the default when nothing is satisfied.
// Mission level:
//   - a decider combines the per-UAV outputs into mission as planned /
//     task redistribution / mission cannot be completed.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "sesame/conserts/consert.hpp"

namespace sesame::conserts {

/// Runtime-evidence flags for one UAV. The adapter in the EDDI layer fills
/// this from the live technologies; tests set fields directly.
struct UavEvidence {
  // GPS-based localization ConSert inputs.
  bool gps_quality_good = false;     ///< receiver metrics nominal
  bool no_security_attack = false;   ///< Security EDDI reports no attack
  // Vision-based localization ConSert inputs.
  bool vision_sensor_healthy = false;
  bool safeml_confidence_high = false;
  // Communication-based localization ConSert inputs.
  bool comm_link_good = false;
  bool nearby_uav_available = false;  ///< an assistant UAV is in range
  // Safety EDDI (SafeDrones) reliability level — exactly one should hold.
  bool reliability_high = false;
  bool reliability_medium = false;
  bool reliability_low = false;
};

/// Evidence key for `field` of the UAV named `uav`; keys are
/// "<uav>/<field>", e.g. "uav1/gps_quality_good".
std::string evidence_key(const std::string& uav, const std::string& field);

/// Number of evidence flags in UavEvidence.
inline constexpr std::size_t kUavEvidenceFields = 9;

/// ConSert names for one UAV (all prefixed "<uav>/").
struct UavConsertNames {
  std::string gps_localization;
  std::string vision_localization;
  std::string comm_localization;
  std::string navigation;
  std::string safety;
  std::string uav;
};
UavConsertNames uav_consert_names(const std::string& uav);

/// Well-known guarantee names.
namespace guarantees {
inline const char* kGpsAccurate = "gps_localization_accurate";
inline const char* kVisionAvailable = "vision_localization_available";
inline const char* kCommAvailable = "comm_localization_available";
inline const char* kNavHighPerformance = "navigation_accuracy_0_5m";
inline const char* kNavCollaborative = "navigation_accuracy_0_75m";
inline const char* kNavVision = "navigation_accuracy_1m_vision";
inline const char* kNavAssistant = "navigation_accuracy_1m_assistant";
inline const char* kReliabilityHigh = "reliability_high";
inline const char* kReliabilityMedium = "reliability_medium";
inline const char* kReliabilityLow = "reliability_low";
inline const char* kContinueExtended = "continue_mission_take_over_tasks";
inline const char* kContinue = "continue_mission";
inline const char* kHold = "hold_position";
inline const char* kReturnToBase = "return_to_base";
}  // namespace guarantees

/// Adds the six ConSerts of one UAV to `network`.
void add_uav_conserts(ConSertNetwork& network, const std::string& uav);

/// The UAV-level action lattice (Fig. 1), ordered strongest to weakest.
enum class UavAction {
  kContinueExtended,  ///< continue; can take over additional tasks
  kContinue,
  kHold,
  kReturnToBase,
  kEmergencyLand,  ///< default when no UAV-ConSert guarantee holds
};

std::string uav_action_name(UavAction a);

/// One UAV's evidence slots, top-level ConSert and action guarantees in a
/// compiled network, resolved once so that a runtime tick writes evidence
/// and reads the action by index.
struct UavSlots {
  std::array<std::size_t, kUavEvidenceFields> evidence{};  ///< field order
  std::size_t uav_consert = 0;
  /// Guarantee ids of kContinueExtended..kReturnToBase, in action order.
  std::array<std::size_t, 4> actions{};
};

/// Resolves `uav`'s slots; throws std::out_of_range when the network was
/// not built with add_uav_conserts(network, uav).
UavSlots uav_slots(const CompiledNetwork& network, const std::string& uav);

/// Writes all evidence flags of one UAV into the compiled network.
void write_evidence(CompiledNetwork& network, const UavSlots& slots,
                    const UavEvidence& evidence);

/// The action for one UAV after network.evaluate().
UavAction uav_action(const CompiledNetwork& network, const UavSlots& slots);

/// Mission-level decision (Fig. 1 top).
enum class MissionDecision {
  kCompleteAsPlanned,
  kRedistributeTasks,
  kCannotComplete,
};

std::string mission_decision_name(MissionDecision d);

/// The mission decider: all UAVs continuing -> as planned; at least one
/// drops out but some remaining UAV can take over its tasks ->
/// redistribution; otherwise the mission cannot be fully completed.
MissionDecision decide_mission(const std::vector<UavAction>& uav_actions);

}  // namespace sesame::conserts
