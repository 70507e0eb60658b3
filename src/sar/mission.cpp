#include "sesame/sar/mission.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sesame::sar {

double DetectionStats::precision() const {
  const std::size_t total = true_detections + false_alarms;
  if (total == 0) return 1.0;
  return static_cast<double>(true_detections) / static_cast<double>(total);
}

double DetectionStats::recall() const {
  if (persons_total == 0) return 1.0;
  return static_cast<double>(persons_found) / static_cast<double>(persons_total);
}

SarMission::SarMission(sim::World& world, std::vector<std::size_t> uavs,
                       std::vector<SweepPlan> plans,
                       perception::DetectorConfig detector)
    : world_(&world), active_uavs_(std::move(uavs)), detector_(detector) {
  if (active_uavs_.size() != plans.size() || active_uavs_.empty()) {
    throw std::invalid_argument("SarMission: UAV/plan count mismatch");
  }
  for (std::size_t i = 0; i < active_uavs_.size(); ++i) {
    sim::Uav& uav = world_->uav(active_uavs_[i]);
    uav.clear_waypoints();
    for (const auto& wp : plans[i].waypoints) uav.add_waypoint(wp);
  }
  stats_.persons_total = world_->persons().size();
  total_assigned_ = total_remaining();
}

double SarMission::progress() const {
  if (total_assigned_ == 0) return 1.0;
  const std::size_t remaining = total_remaining();
  return 1.0 - static_cast<double>(remaining) /
                   static_cast<double>(total_assigned_);
}

double SarMission::eta_s(double fleet_speed_mps) const {
  if (fleet_speed_mps <= 0.0) {
    throw std::invalid_argument("SarMission::eta_s: non-positive speed");
  }
  double longest_m = 0.0;
  double total_m = 0.0;
  std::size_t active_airborne = 0;
  for (const std::size_t i : active_uavs_) {
    const double d = world_->uav(i).remaining_path_length_m();
    total_m += d;
    longest_m = std::max(longest_m, d);
    ++active_airborne;
  }
  if (total_m == 0.0 || active_airborne == 0) return 0.0;
  // The fleet finishes when its most-loaded member does; with balanced
  // strips that is close to total / fleet, so take the max of both bounds.
  return std::max(longest_m,
                  total_m / static_cast<double>(active_airborne)) /
         fleet_speed_mps;
}

void SarMission::enable_coverage_tracking(const Area& area, double cell_m) {
  tracker_.emplace(area, cell_m);
}

void SarMission::tick() {
  ++stats_.frames;
  last_tick_detectors_.clear();
  auto& persons = world_->persons();
  if (person_grid_.indexed_points() != persons.size()) {
    person_grid_.rebuild(persons.size(),
                         [&persons](std::size_t i) -> const geo::EnuPoint& {
                           return persons[i].position;
                         });
  }
  for (const std::size_t i : active_uavs_) {
    const sim::Uav& uav = world_->uav(i);
    if (!uav.airborne()) continue;
    if (!uav.vision_sensor_healthy()) continue;  // camera blind: no frames
    const auto fp = detector_.camera().footprint(uav.true_position());
    if (tracker_) tracker_->mark(fp);
    candidate_scratch_.clear();
    person_grid_.query_rect(fp.center_east_m - fp.half_width_m,
                            fp.center_east_m + fp.half_width_m,
                            fp.center_north_m - fp.half_height_m,
                            fp.center_north_m + fp.half_height_m,
                            candidate_scratch_);
    const auto detections = detector_.detect(uav.true_position(), persons,
                                             candidate_scratch_, world_->rng());
    if (!detections.empty()) last_tick_detectors_.push_back(i);
    person_tracker_.update(detections);
    for (const auto& d : detections) {
      if (d.person_index.has_value()) {
        ++stats_.true_detections;
        auto& person = persons[*d.person_index];
        if (!person.detected) {
          person.detected = true;
          ++stats_.persons_found;
        }
      } else {
        ++stats_.false_alarms;
      }
    }
  }
}

std::size_t SarMission::total_remaining() const {
  std::size_t total = 0;
  for (const std::size_t i : active_uavs_) {
    total += world_->uav(i).waypoints_remaining();
  }
  return total;
}

bool SarMission::complete() const { return total_remaining() == 0; }

bool SarMission::is_active(std::size_t uav) const {
  return std::find(active_uavs_.begin(), active_uavs_.end(), uav) !=
         active_uavs_.end();
}

std::size_t SarMission::redistribute(std::size_t failed_uav,
                                     std::size_t takeover_uav) {
  const auto it =
      std::find(active_uavs_.begin(), active_uavs_.end(), failed_uav);
  if (it == active_uavs_.end()) {
    throw std::invalid_argument("redistribute: unknown mission UAV " +
                                std::to_string(failed_uav));
  }
  if (failed_uav == takeover_uav) {
    throw std::invalid_argument("redistribute: takeover UAV equals failed UAV");
  }
  if (!is_active(takeover_uav)) {
    throw std::invalid_argument("redistribute: unknown takeover UAV " +
                                std::to_string(takeover_uav));
  }

  sim::Uav& failed = world_->uav(failed_uav);
  sim::Uav& takeover = world_->uav(takeover_uav);

  const std::size_t moved = failed.transfer_waypoints_to(takeover);
  active_uavs_.erase(it);
  return moved;
}

std::size_t SarMission::retire(std::size_t uav) {
  const auto it = std::find(active_uavs_.begin(), active_uavs_.end(), uav);
  if (it == active_uavs_.end()) {
    throw std::invalid_argument("retire: unknown mission UAV " +
                                std::to_string(uav));
  }
  sim::Uav& vehicle = world_->uav(uav);
  const std::size_t stranded = vehicle.waypoints_remaining();
  vehicle.clear_waypoints();
  active_uavs_.erase(it);
  return stranded;
}

}  // namespace sesame::sar
