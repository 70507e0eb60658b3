#include "sesame/platform/invariants.hpp"

#include <stdexcept>

namespace sesame::platform {

InvariantChecker::InvariantChecker(InvariantConfig config) : config_(config) {
  if (config_.min_soc_floor < 0.0 || config_.min_soc_floor >= 1.0 ||
      config_.max_evidence_age_s <= 0.0) {
    throw std::invalid_argument("InvariantChecker: bad config");
  }
}

void InvariantChecker::attach_observability(obs::Observability* o) {
  obs_ = o;
}

void InvariantChecker::record(const char* invariant, const std::string& uav,
                              double now_s, std::string detail) {
  if (obs_ != nullptr) {
    obs_->metrics
        .counter("sesame.platform.invariant_violations_total",
                 {{"invariant", invariant}})
        .inc();
    obs_->tracer.event("sesame.invariant.violation",
                       {{"invariant", invariant},
                        {"uav", uav},
                        {"t_s", obs::attr_value(now_s)},
                        {"detail", detail}});
  }
  violations_.push_back(
      InvariantViolation{invariant, uav, now_s, std::move(detail)});
}

void InvariantChecker::check_lost_uav_inactive(double now_s,
                                               const std::string& uav,
                                               bool declared_lost,
                                               sim::FlightMode mode,
                                               bool mission_active) {
  if (!declared_lost) return;
  if (mission_active) {
    record("lost_uav_serving", uav, now_s,
           "declared-lost vehicle still listed mission-active");
  }
  if (mode == sim::FlightMode::kMission) {
    record("lost_uav_serving", uav, now_s,
           "declared-lost vehicle flying the mission");
  }
}

void InvariantChecker::check_min_soc(double now_s, const std::string& uav,
                                     double soc, sim::FlightMode mode) {
  if (sim::serving(mode) && soc < config_.min_soc_floor) {
    record("min_soc_floor", uav, now_s,
           "soc " + std::to_string(soc) + " below floor while serving");
  }
}

void InvariantChecker::check_detection_source(double now_s,
                                              const std::string& uav,
                                              bool vision_healthy,
                                              sim::FlightMode mode) {
  if (!vision_healthy) {
    record("blind_detection", uav, now_s,
           "detection credited to a blacked-out vision sensor");
  }
  if (mode == sim::FlightMode::kCrashed) {
    record("blind_detection", uav, now_s,
           "detection credited to a crashed vehicle");
  }
}

void InvariantChecker::check_evidence_fresh(double now_s,
                                            const std::string& uav,
                                            bool comm_evidence_good,
                                            double staleness_s) {
  if (comm_evidence_good && staleness_s > config_.max_evidence_age_s) {
    record("stale_evidence", uav, now_s,
           "comm_link_good asserted with telemetry " +
               std::to_string(staleness_s) + "s stale");
  }
}

}  // namespace sesame::platform
