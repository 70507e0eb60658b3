// Collaborative Localization (paper Section III-C).
//
// When a UAV loses trustworthy positioning (GPS spoofed/jammed), nearby
// UAVs detect it with their RGB cameras (tiny-YOLOv4 in the paper, a
// detection-probability model here), estimate range via monocular depth
// (a range-proportional noise model here) and bearing, and the fused fix —
// trigonometric projection + Haversine refinement (sesame::geo) — is
// published on the affected UAV's position-fix topic. The affected UAV
// then navigates on collaborative fixes alone, enabling the Fig. 7
// safe landing without any GPS signal.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sesame/geo/fix.hpp"
#include "sesame/sim/world.hpp"

namespace sesame::localization {

/// How assistant observations are fused into a fix.
enum class FixMethod {
  /// Camera bearing + monocular-depth range per assistant, fused by
  /// trigonometric projection (the paper's primary CL method). Works from
  /// a single assistant.
  kRangeBearing,
  /// Range-only trilateration (e.g. RF time-of-flight between vehicles);
  /// needs at least three assistants with usable ranges but no camera
  /// pointing/bearing estimate at all.
  kRangeOnly,
};

/// Sensor model of an assistant observing the affected UAV.
struct ObservationModel {
  /// Maximum slant range at which the target is detectable.
  double detection_range_m = 150.0;
  /// Probability of detecting the target when within range (per attempt).
  double detection_probability = 0.95;
  /// Monocular-depth range error: sigma = range_noise_frac * range.
  double range_noise_frac = 0.04;
  /// Bearing estimation error (1 sigma, degrees).
  double bearing_noise_deg = 2.0;
  FixMethod method = FixMethod::kRangeBearing;
};

/// One assistant's observation attempt (diagnostics).
struct AssistantObservation {
  std::size_t assistant = 0;  ///< fleet index of the observing UAV
  bool detected = false;
  double true_range_m = 0.0;
};

/// Result of one collaborative update.
struct CollaborativeFix {
  geo::FixResult fix;
  std::size_t observations_used = 0;
  double true_error_m = 0.0;  ///< ground truth error (simulation only)
};

/// Periodically localizes one affected UAV using its fleet neighbours.
class CollaborativeLocalizer {
 public:
  /// `affected` must name a UAV in `world`; `assistants` are the observing
  /// UAVs (the affected UAV itself is rejected). Names are resolved to
  /// fleet indices here, once.
  CollaborativeLocalizer(sim::World& world, const std::string& affected,
                         const std::vector<std::string>& assistants,
                         ObservationModel model = {});

  /// Fleet index of the affected UAV.
  std::size_t affected() const noexcept { return affected_; }

  /// Performs one observation round: each assistant within range attempts
  /// a detection; successful observations are fused and the fix published
  /// on position_fix_topic(affected). Returns nullopt when fewer than one
  /// observation succeeded.
  std::optional<CollaborativeFix> update();

  /// Observation attempts of the last update (diagnostics).
  const std::vector<AssistantObservation>& last_attempts() const noexcept {
    return last_attempts_;
  }

  /// Most recent successful fix, if any.
  const std::optional<CollaborativeFix>& last_fix() const noexcept {
    return last_fix_;
  }

  std::size_t fixes_published() const noexcept { return fixes_published_; }

 private:
  sim::World* world_;
  std::size_t affected_;
  std::vector<std::size_t> assistants_;
  std::string fix_topic_;  ///< the affected UAV's position-fix topic
  ObservationModel model_;
  std::vector<AssistantObservation> last_attempts_;
  std::optional<CollaborativeFix> last_fix_;
  std::size_t fixes_published_ = 0;
};

/// Drives an affected UAV to a safe landing point on collaborative fixes
/// alone (paper Fig. 7): navigates to the point, then lands.
class SafeLandingGuide {
 public:
  /// `safe_point` is the designated landing location (world ENU; up_m is
  /// the approach altitude).
  SafeLandingGuide(sim::World& world, CollaborativeLocalizer& localizer,
                   geo::EnuPoint safe_point,
                   double capture_radius_m = 5.0);

  /// Advances the guidance by one tick: runs a localization round, steers
  /// the UAV, and commands the final descent once over the safe point.
  /// Call after each world step. Returns true while still guiding.
  bool step();

  bool landed() const;

  /// Ground distance from the UAV's true position to the safe point.
  double true_distance_to_target_m() const;

 private:
  sim::World* world_;
  CollaborativeLocalizer* localizer_;
  geo::EnuPoint safe_point_;
  double capture_radius_m_;
  bool descent_commanded_ = false;
  bool waypoint_set_ = false;
};

}  // namespace sesame::localization
