#include "sesame/localization/collaborative.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::localization {

CollaborativeLocalizer::CollaborativeLocalizer(
    sim::World& world, const std::string& affected,
    const std::vector<std::string>& assistants, ObservationModel model)
    : world_(&world), affected_(0),
      fix_topic_(sim::position_fix_topic(affected)), model_(model) {
  if (model_.detection_range_m <= 0.0 || model_.range_noise_frac < 0.0 ||
      model_.bearing_noise_deg < 0.0 || model_.detection_probability <= 0.0 ||
      model_.detection_probability > 1.0) {
    throw std::invalid_argument("CollaborativeLocalizer: bad observation model");
  }
  if (assistants.empty()) {
    throw std::invalid_argument("CollaborativeLocalizer: no assistants");
  }
  // uav_by_name throws std::out_of_range on an unknown name.
  affected_ = world_->uav_by_name(affected).fleet_index();
  for (const auto& a : assistants) {
    if (a == affected) {
      throw std::invalid_argument(
          "CollaborativeLocalizer: affected UAV cannot assist itself");
    }
    assistants_.push_back(world_->uav_by_name(a).fleet_index());
  }
}

std::optional<CollaborativeFix> CollaborativeLocalizer::update() {
  last_attempts_.clear();
  const sim::Uav& target = world_->uav(affected_);
  const geo::GeoPoint target_true = target.true_geo();

  std::vector<geo::RangeBearingObservation> observations;
  for (const std::size_t i : assistants_) {
    const sim::Uav& assistant = world_->uav(i);
    AssistantObservation attempt;
    attempt.assistant = i;
    // Observation geometry is physical: true positions drive visibility.
    const geo::GeoPoint assistant_true = assistant.true_geo();
    attempt.true_range_m = geo::slant_range_m(assistant_true, target_true);
    if (attempt.true_range_m <= model_.detection_range_m &&
        world_->rng().bernoulli(model_.detection_probability)) {
      attempt.detected = true;
      geo::RangeBearingObservation obs;
      // The assistant reports from its *own estimated* position — its GPS
      // is healthy, so this is near-truth; errors propagate realistically.
      obs.observer = assistant.estimated_geo();
      const double true_ground =
          geo::haversine_m(assistant_true, target_true);
      const double sigma =
          std::max(0.5, model_.range_noise_frac * attempt.true_range_m);
      obs.range_m =
          std::max(0.0, true_ground + world_->rng().normal(0.0, sigma));
      obs.bearing_deg = geo::bearing_deg(assistant_true, target_true) +
                        world_->rng().normal(0.0, model_.bearing_noise_deg);
      obs.range_sigma_m = sigma;
      observations.push_back(obs);
    }
    last_attempts_.push_back(attempt);
  }

  if (observations.empty()) return std::nullopt;

  CollaborativeFix result;
  if (model_.method == FixMethod::kRangeOnly) {
    // Trilateration path: drop the bearings, solve from ranges alone.
    std::vector<geo::RangeObservation> ranges;
    ranges.reserve(observations.size());
    for (const auto& o : observations) {
      geo::RangeObservation r;
      r.observer = o.observer;
      r.range_m = o.range_m;
      r.range_sigma_m = o.range_sigma_m;
      ranges.push_back(r);
    }
    const auto fix = geo::trilaterate(ranges);
    if (!fix.has_value()) return std::nullopt;  // < 3 ranges or degenerate
    result.fix = *fix;
  } else {
    result.fix = geo::fuse_range_bearing(observations);
  }
  result.fix.position.alt_m = target_true.alt_m;
  result.observations_used = observations.size();
  result.true_error_m = geo::haversine_m(result.fix.position, target_true);

  world_->bus().publish(fix_topic_, result.fix.position,
                        "collaborative_localization", world_->time_s());
  ++fixes_published_;
  last_fix_ = result;
  return result;
}

SafeLandingGuide::SafeLandingGuide(sim::World& world,
                                   CollaborativeLocalizer& localizer,
                                   geo::EnuPoint safe_point,
                                   double capture_radius_m)
    : world_(&world), localizer_(&localizer), safe_point_(safe_point),
      capture_radius_m_(capture_radius_m) {
  if (capture_radius_m_ <= 0.0) {
    throw std::invalid_argument("SafeLandingGuide: non-positive capture radius");
  }
}

bool SafeLandingGuide::step() {
  sim::Uav& uav = world_->uav(localizer_->affected());
  if (uav.mode() == sim::FlightMode::kLanded) return false;

  localizer_->update();

  if (!descent_commanded_) {
    if (!waypoint_set_) {
      uav.clear_waypoints();
      geo::EnuPoint approach = safe_point_;
      if (approach.up_m <= 0.0) approach.up_m = uav.true_position().up_m;
      uav.add_waypoint(approach);
      uav.command_resume_mission();
      waypoint_set_ = true;
    }
    // The descent decision uses the *estimated* position (CL-driven): the
    // gap between estimate and truth at touchdown is the landing error the
    // Fig. 7 experiment measures.
    const double est_distance =
        geo::enu_ground_distance_m(uav.estimated_position(), safe_point_);
    if (est_distance <= capture_radius_m_) {
      uav.command_emergency_land();  // controlled descent over the pad
      descent_commanded_ = true;
    }
  }
  return true;
}

bool SafeLandingGuide::landed() const {
  return world_->uav(localizer_->affected()).mode() ==
         sim::FlightMode::kLanded;
}

double SafeLandingGuide::true_distance_to_target_m() const {
  const sim::Uav& uav = world_->uav(localizer_->affected());
  return geo::enu_ground_distance_m(uav.true_position(), safe_point_);
}

}  // namespace sesame::localization
