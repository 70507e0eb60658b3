// Ground Control Station (paper Section IV-A).
//
// The operator-facing aggregation point: watches the fleet's telemetry,
// logs operationally relevant events (mode transitions, low-battery
// warnings, security events), and renders the textual status view the
// web/control GUIs display. Pure consumer — it commands nothing itself;
// MissionRunner commands the vehicles (apply_action).
#pragma once

#include <string>
#include <vector>

#include "sesame/mw/bus.hpp"
#include "sesame/platform/database.hpp"
#include "sesame/security/security_eddi.hpp"
#include "sesame/sim/world.hpp"

namespace sesame::platform {

struct GcsEvent {
  double time_s = 0.0;
  std::string category;  ///< "mode" | "battery" | "security" | "operator"
  std::string uav;       ///< empty for fleet-wide events
  std::string message;
};

struct GcsConfig {
  /// State-of-charge below which a battery warning is logged (once per
  /// crossing).
  double low_battery_warning_soc = 0.25;
  /// Cap on the retained event log (oldest dropped).
  std::size_t event_limit = 10000;
};

/// The LINK cell of a fleet-status row: "LOST" for a vehicle the recovery
/// escalation wrote off, "silent <age> s" when its newest telemetry is
/// more than 5 s old (the runner's default staleness window), else
/// "live". Rows that are not live show the last mode the vehicle
/// reported, not its current one.
std::string link_status(bool lost, double telemetry_age_s);

class GroundControlStation {
 public:
  /// Attaches to the bus and registers itself as a database client named
  /// `client_id`.
  GroundControlStation(mw::Bus& bus, DatabaseManager& database,
                       std::string client_id = "gcs", GcsConfig config = {});

  /// Starts watching a UAV's telemetry: logs flight-mode transitions and
  /// low-battery crossings.
  void watch_uav(const std::string& name);

  /// Manually logged operator note.
  void log_operator_note(double time_s, const std::string& message);

  const std::vector<GcsEvent>& events() const noexcept { return events_; }

  /// Events of one category (copy).
  std::vector<GcsEvent> events_of(const std::string& category) const;

  /// Renders the fleet status at mission time `now_s` as a fixed-width
  /// text table (the web-GUI view): one row per watched UAV with position,
  /// battery, last reported mode and its link_status (`lost` names the
  /// vehicles recovery declared lost).
  std::string render_status(double now_s,
                            const std::vector<std::string>& lost = {}) const;

 private:
  mw::Bus* bus_;
  DatabaseManager* database_;
  std::string client_id_;
  GcsConfig config_;
  std::vector<std::string> watched_;
  std::vector<mw::Subscription> subscriptions_;
  std::vector<GcsEvent> events_;
  std::map<std::string, sim::FlightMode> last_mode_;
  std::map<std::string, bool> battery_warned_;

  void push_event(GcsEvent event);
};

}  // namespace sesame::platform
