#include "sesame/sim/failure_schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "sesame/mathx/rng.hpp"

namespace sesame::sim {

std::string failure_mode_name(FailureMode m) {
  switch (m) {
    case FailureMode::kMotorDegradation: return "motor_degradation";
    case FailureMode::kSensorDropout: return "sensor_dropout";
    case FailureMode::kBatteryCellFault: return "battery_cell_fault";
    case FailureMode::kCommsBlackout: return "comms_blackout";
    case FailureMode::kHardCrash: return "hard_crash";
  }
  return "unknown";
}

FailureMode failure_mode_from_name(const std::string& name) {
  for (const FailureMode m :
       {FailureMode::kMotorDegradation, FailureMode::kSensorDropout,
        FailureMode::kBatteryCellFault, FailureMode::kCommsBlackout,
        FailureMode::kHardCrash}) {
    if (failure_mode_name(m) == name) return m;
  }
  throw std::invalid_argument("failure_mode_from_name: unknown mode '" + name +
                              "'");
}

void FailureSchedule::sort() {
  std::stable_sort(events.begin(), events.end(),
                   [](const FailureEvent& a, const FailureEvent& b) {
                     if (a.time_s != b.time_s) return a.time_s < b.time_s;
                     if (a.uav != b.uav) return a.uav < b.uav;
                     return static_cast<int>(a.mode) < static_cast<int>(b.mode);
                   });
}

double FailureSchedule::first_event_time_s() const {
  if (events.empty()) return -1.0;
  double first = events.front().time_s;
  for (const auto& e : events) first = std::min(first, e.time_s);
  return first;
}

FailureSchedule FailureSchedule::chaos(std::uint64_t seed,
                                       const std::vector<std::string>& uavs,
                                       const ChaosProfile& profile) {
  if (profile.latest_time_s < profile.earliest_time_s ||
      profile.max_duration_s < profile.min_duration_s) {
    throw std::invalid_argument("FailureSchedule::chaos: inverted range");
  }
  mathx::Rng rng(seed);
  const std::vector<double> weights(std::begin(profile.weights),
                                    std::end(profile.weights));
  FailureSchedule schedule;
  std::size_t crashes = 0;
  for (const auto& uav : uavs) {
    const std::size_t n = static_cast<std::size_t>(
        rng.uniform_index(profile.max_events_per_uav + 1));
    for (std::size_t i = 0; i < n; ++i) {
      FailureEvent e;
      e.uav = uav;
      e.mode = static_cast<FailureMode>(rng.categorical(weights));
      if (e.mode == FailureMode::kHardCrash) {
        if (crashes >= profile.max_hard_crashes) {
          // Crash budget exhausted: degrade to a comms blackout, which
          // exercises the same detection path without downing the fleet.
          e.mode = FailureMode::kCommsBlackout;
        } else {
          ++crashes;
        }
      }
      e.time_s = rng.uniform(profile.earliest_time_s, profile.latest_time_s);
      e.duration_s =
          rng.uniform(profile.min_duration_s, profile.max_duration_s);
      e.soc_after = rng.uniform(0.25, 0.50);
      e.temp_c = rng.uniform(65.0, 80.0);
      schedule.events.push_back(std::move(e));
    }
  }
  schedule.sort();
  return schedule;
}

// Drops every message a blacked-out vehicle publishes (its radio is dead)
// and every message on its four channels (the uplink is the same radio):
// telemetry, position fixes, heartbeats, pings. Owners come from the
// world's channel table, so a decision is two indexed loads. Pure
// time-window logic — no randomness, so the gate never perturbs any other
// stream.
class FailureInjector::BlackoutGate : public mw::DeliveryPolicy {
 public:
  explicit BlackoutGate(const World& world)
      : world_(world), out_(world.num_uavs(), 0) {}

  mw::FaultDecision decide(const mw::MessageHeader& header) override {
    mw::FaultDecision d;
    if (none_out_) return d;
    d.drop = out(world_.source_owner(header.source_id)) ||
             out(world_.channel_owner(header.topic_id));
    return d;
  }

  /// Blacks out exactly the vehicles of the active blackout outages.
  void set_active(const std::vector<Outage>& outages) {
    std::fill(out_.begin(), out_.end(), std::uint8_t{0});
    none_out_ = true;
    for (const auto& o : outages) {
      if (o.mode != FailureMode::kCommsBlackout) continue;
      out_[o.uav] = 1;
      none_out_ = false;
    }
  }

 private:
  bool out(std::uint32_t uav) const {
    return uav < out_.size() && out_[uav] != 0;
  }

  const World& world_;
  std::vector<std::uint8_t> out_;  ///< one byte per vehicle, by fleet index
  bool none_out_ = true;
};

FailureInjector::FailureInjector(World& world, FailureSchedule schedule)
    : world_(&world), schedule_(std::move(schedule)) {
  schedule_.sort();
  event_uav_.reserve(schedule_.events.size());
  for (const auto& e : schedule_.events) {
    // Throws on a schedule naming unknown UAVs.
    event_uav_.push_back(world_->uav_by_name(e.uav).fleet_index());
    if (e.time_s < 0.0) {
      throw std::invalid_argument("FailureInjector: negative event time");
    }
  }
  const bool any_blackout = std::any_of(
      schedule_.events.begin(), schedule_.events.end(), [](const auto& e) {
        return e.mode == FailureMode::kCommsBlackout;
      });
  if (any_blackout) {
    gate_ = std::make_unique<BlackoutGate>(*world_);
    gate_sub_ = world_->bus().add_delivery_policy(gate_.get());
  }
}

FailureInjector::~FailureInjector() = default;

bool FailureInjector::comms_blacked_out(std::size_t uav) const {
  for (const auto& o : outages_) {
    if (o.mode == FailureMode::kCommsBlackout && o.uav == uav) return true;
  }
  return false;
}

std::size_t FailureInjector::step(double now_s) {
  // Expire finished outages first so a dropout ending exactly when another
  // begins hands over cleanly.
  for (std::size_t i = 0; i < outages_.size();) {
    const Outage& o = outages_[i];
    if (!o.forever && now_s >= o.until_s) {
      const Outage ended = o;
      outages_.erase(outages_.begin() + static_cast<std::ptrdiff_t>(i));
      if (ended.mode == FailureMode::kSensorDropout) {
        // A concurrent dropout on the same vehicle keeps it blind.
        bool still_blind = false;
        for (const auto& other : outages_) {
          if (other.mode == FailureMode::kSensorDropout &&
              other.uav == ended.uav) {
            still_blind = true;
            break;
          }
        }
        if (!still_blind) {
          world_->uav(ended.uav).set_vision_sensor_healthy(true);
        }
      }
      continue;
    }
    ++i;
  }

  std::size_t newly_applied = 0;
  while (next_event_ < schedule_.events.size() &&
         schedule_.events[next_event_].time_s <= now_s) {
    apply(schedule_.events[next_event_], event_uav_[next_event_], now_s);
    ++next_event_;
    ++applied_;
    ++newly_applied;
  }

  if (gate_ != nullptr) gate_->set_active(outages_);
  return newly_applied;
}

void FailureInjector::apply(const FailureEvent& event, std::size_t i,
                            double now_s) {
  Uav& uav = world_->uav(i);
  switch (event.mode) {
    case FailureMode::kMotorDegradation:
      uav.fail_motor();
      break;
    case FailureMode::kSensorDropout:
      uav.set_vision_sensor_healthy(false);
      outages_.push_back(Outage{i, event.mode, now_s + event.duration_s,
                                event.duration_s <= 0.0});
      break;
    case FailureMode::kBatteryCellFault:
      // Only collapse downward: a fault cannot recharge the pack.
      uav.battery().inject_thermal_fault(
          std::min(event.soc_after, uav.battery().soc()), event.temp_c);
      break;
    case FailureMode::kCommsBlackout:
      outages_.push_back(Outage{i, event.mode, now_s + event.duration_s,
                                event.duration_s <= 0.0});
      break;
    case FailureMode::kHardCrash:
      world_->crash_uav(i);
      break;
  }
}

}  // namespace sesame::sim
