#include "sesame/platform/config_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sesame::platform {

namespace ode = eddi::ode;

eddi::ode::Value config_to_json(const RunnerConfig& config) {
  ode::Value doc;
  doc["sesame_enabled"] = config.sesame_enabled;
  doc["dt_s"] = config.dt_s;
  doc["max_time_s"] = config.max_time_s;
  doc["consert_period_s"] = config.consert_period_s;
  doc["battery_swap_time_s"] = config.battery_swap_time_s;
  doc["baseline_rtb_soc"] = config.baseline_rtb_soc;
  doc["n_uavs"] = config.n_uavs;
  doc["n_persons"] = config.n_persons;
  doc["descend_altitude_m"] = config.descend_altitude_m;
  doc["descend_patience"] = config.descend_patience;
  doc["lossy_links"] = config.lossy_links;
  doc["telemetry_staleness_window_s"] = config.telemetry_staleness_window_s;
  doc["recovery_enabled"] = config.recovery_enabled;
  doc["health_heartbeat_period_s"] = config.health_heartbeat_period_s;
  doc["seed"] = static_cast<double>(config.seed);

  ode::Value recovery;
  recovery["staleness_window_s"] = config.recovery.staleness_window_s;
  recovery["ping_timeout_s"] = config.recovery.ping_timeout_s;
  recovery["max_pings"] = static_cast<double>(config.recovery.max_pings);
  recovery["ping_backoff"] = config.recovery.ping_backoff;
  recovery["demote_grace_s"] = config.recovery.demote_grace_s;
  recovery["rth_timeout_s"] = config.recovery.rth_timeout_s;
  recovery["min_soc_rtb"] = config.recovery.min_soc_rtb;
  doc["recovery"] = recovery;

  ode::Value invariants;
  invariants["min_soc_floor"] = config.invariants.min_soc_floor;
  invariants["max_evidence_age_s"] = config.invariants.max_evidence_age_s;
  doc["invariants"] = invariants;

  if (config.failure_schedule) {
    ode::Value events{ode::Value::Array{}};
    for (const auto& e : config.failure_schedule->events) {
      ode::Value ev;
      ev["uav"] = e.uav;
      ev["mode"] = std::string(sim::failure_mode_name(e.mode));
      ev["time_s"] = e.time_s;
      ev["duration_s"] = e.duration_s;
      ev["soc_after"] = e.soc_after;
      ev["temp_c"] = e.temp_c;
      events.push_back(ev);
    }
    ode::Value schedule;
    schedule["events"] = events;
    doc["failure_schedule"] = schedule;
  }

  ode::Value comm_link;
  comm_link["nominal_range_m"] = config.comm_link.nominal_range_m;
  comm_link["max_range_m"] = config.comm_link.max_range_m;
  comm_link["fading_sigma"] = config.comm_link.fading_sigma;
  comm_link["usable_threshold"] = config.comm_link.usable_threshold;
  doc["comm_link"] = comm_link;

  if (config.fault_plan) {
    ode::Value plan;
    plan["seed"] = static_cast<double>(config.fault_plan->seed);
    ode::Value rules{ode::Value::Array{}};
    for (const auto& r : config.fault_plan->rules) {
      ode::Value rule;
      if (!r.topic_prefix.empty()) rule["topic_prefix"] = r.topic_prefix;
      if (!r.topic_suffix.empty()) rule["topic_suffix"] = r.topic_suffix;
      if (!r.source.empty()) rule["source"] = r.source;
      rule["start_time_s"] = r.start_time_s;
      // Infinity is not representable in JSON; absent = never stops.
      if (std::isfinite(r.stop_time_s)) rule["stop_time_s"] = r.stop_time_s;
      rule["drop_probability"] = r.drop_probability;
      rule["delay_probability"] = r.delay_probability;
      rule["delay_steps"] = static_cast<double>(r.delay_steps);
      rule["duplicate_probability"] = r.duplicate_probability;
      rule["reorder"] = r.reorder;
      rules.push_back(rule);
    }
    plan["rules"] = rules;
    doc["fault_plan"] = plan;
  }

  ode::Value area;
  area["east_min"] = config.area.east_min;
  area["east_max"] = config.area.east_max;
  area["north_min"] = config.area.north_min;
  area["north_max"] = config.area.north_max;
  doc["area"] = area;

  ode::Value coverage;
  coverage["altitude_m"] = config.coverage.altitude_m;
  coverage["lane_spacing_m"] = config.coverage.lane_spacing_m;
  coverage["along_track_spacing_m"] = config.coverage.along_track_spacing_m;
  doc["coverage"] = coverage;

  if (config.battery_fault) {
    ode::Value ev;
    ev["uav"] = config.battery_fault->uav;
    ev["time_s"] = config.battery_fault->time_s;
    ev["soc_after"] = config.battery_fault->soc_after;
    ev["temp_c"] = config.battery_fault->temp_c;
    doc["battery_fault"] = ev;
  }
  if (config.spoofing) {
    ode::Value ev;
    ev["uav"] = config.spoofing->uav;
    ev["time_s"] = config.spoofing->time_s;
    ev["walk_mps"] = config.spoofing->walk_mps;
    doc["spoofing"] = ev;
  }
  return doc;
}

namespace {

[[noreturn]] void unknown_key(const std::string& scope, const std::string& key) {
  throw std::runtime_error("config_from_json: unknown key '" + key + "' in " +
                           scope);
}

double number(const ode::Value& v, const char* what) {
  if (!v.is_number()) {
    throw std::invalid_argument(std::string("config_from_json: ") + what +
                                " must be a number");
  }
  return v.as_number();
}

}  // namespace

RunnerConfig config_from_json(const eddi::ode::Value& doc) {
  if (!doc.is_object()) {
    throw std::invalid_argument("config_from_json: top level must be an object");
  }
  RunnerConfig config;
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "sesame_enabled") {
      if (!value.is_bool()) {
        throw std::invalid_argument("config_from_json: sesame_enabled bool");
      }
      config.sesame_enabled = value.as_bool();
    } else if (key == "dt_s") {
      config.dt_s = number(value, "dt_s");
    } else if (key == "max_time_s") {
      config.max_time_s = number(value, "max_time_s");
    } else if (key == "consert_period_s") {
      config.consert_period_s = number(value, "consert_period_s");
    } else if (key == "battery_swap_time_s") {
      config.battery_swap_time_s = number(value, "battery_swap_time_s");
    } else if (key == "baseline_rtb_soc") {
      config.baseline_rtb_soc = number(value, "baseline_rtb_soc");
    } else if (key == "n_uavs") {
      config.n_uavs = static_cast<std::size_t>(number(value, "n_uavs"));
    } else if (key == "n_persons") {
      config.n_persons = static_cast<std::size_t>(number(value, "n_persons"));
    } else if (key == "descend_altitude_m") {
      config.descend_altitude_m = number(value, "descend_altitude_m");
    } else if (key == "descend_patience") {
      config.descend_patience =
          static_cast<int>(number(value, "descend_patience"));
    } else if (key == "lossy_links") {
      if (!value.is_bool()) {
        throw std::invalid_argument("config_from_json: lossy_links bool");
      }
      config.lossy_links = value.as_bool();
    } else if (key == "telemetry_staleness_window_s") {
      config.telemetry_staleness_window_s =
          number(value, "telemetry_staleness_window_s");
    } else if (key == "recovery_enabled") {
      if (!value.is_bool()) {
        throw std::invalid_argument("config_from_json: recovery_enabled bool");
      }
      config.recovery_enabled = value.as_bool();
    } else if (key == "health_heartbeat_period_s") {
      config.health_heartbeat_period_s =
          number(value, "health_heartbeat_period_s");
    } else if (key == "recovery") {
      for (const auto& [rkey, rvalue] : value.as_object()) {
        if (rkey == "staleness_window_s") config.recovery.staleness_window_s = number(rvalue, rkey.c_str());
        else if (rkey == "ping_timeout_s") config.recovery.ping_timeout_s = number(rvalue, rkey.c_str());
        else if (rkey == "max_pings") config.recovery.max_pings = static_cast<std::size_t>(number(rvalue, rkey.c_str()));
        else if (rkey == "ping_backoff") config.recovery.ping_backoff = number(rvalue, rkey.c_str());
        else if (rkey == "demote_grace_s") config.recovery.demote_grace_s = number(rvalue, rkey.c_str());
        else if (rkey == "rth_timeout_s") config.recovery.rth_timeout_s = number(rvalue, rkey.c_str());
        else if (rkey == "min_soc_rtb") config.recovery.min_soc_rtb = number(rvalue, rkey.c_str());
        else unknown_key("recovery", rkey);
      }
    } else if (key == "invariants") {
      for (const auto& [ikey, ivalue] : value.as_object()) {
        if (ikey == "min_soc_floor") config.invariants.min_soc_floor = number(ivalue, ikey.c_str());
        else if (ikey == "max_evidence_age_s") config.invariants.max_evidence_age_s = number(ivalue, ikey.c_str());
        else unknown_key("invariants", ikey);
      }
    } else if (key == "failure_schedule") {
      sim::FailureSchedule schedule;
      for (const auto& [skey, svalue] : value.as_object()) {
        if (skey == "events") {
          if (!svalue.is_array()) {
            throw std::invalid_argument(
                "config_from_json: failure_schedule.events array");
          }
          for (const auto& evalue : svalue.as_array()) {
            sim::FailureEvent ev;
            for (const auto& [ekey, evv] : evalue.as_object()) {
              if (ekey == "uav") ev.uav = evv.as_string();
              else if (ekey == "mode") ev.mode = sim::failure_mode_from_name(evv.as_string());
              else if (ekey == "time_s") ev.time_s = number(evv, ekey.c_str());
              else if (ekey == "duration_s") ev.duration_s = number(evv, ekey.c_str());
              else if (ekey == "soc_after") ev.soc_after = number(evv, ekey.c_str());
              else if (ekey == "temp_c") ev.temp_c = number(evv, ekey.c_str());
              else unknown_key("failure_schedule event", ekey);
            }
            schedule.events.push_back(std::move(ev));
          }
        } else unknown_key("failure_schedule", skey);
      }
      config.failure_schedule = std::move(schedule);
    } else if (key == "seed") {
      config.seed = static_cast<std::uint64_t>(number(value, "seed"));
    } else if (key == "comm_link") {
      for (const auto& [lkey, lvalue] : value.as_object()) {
        if (lkey == "nominal_range_m") config.comm_link.nominal_range_m = number(lvalue, lkey.c_str());
        else if (lkey == "max_range_m") config.comm_link.max_range_m = number(lvalue, lkey.c_str());
        else if (lkey == "fading_sigma") config.comm_link.fading_sigma = number(lvalue, lkey.c_str());
        else if (lkey == "usable_threshold") config.comm_link.usable_threshold = number(lvalue, lkey.c_str());
        else unknown_key("comm_link", lkey);
      }
    } else if (key == "fault_plan") {
      mw::FaultPlan plan;
      for (const auto& [pkey, pvalue] : value.as_object()) {
        if (pkey == "seed") {
          plan.seed = static_cast<std::uint64_t>(number(pvalue, "fault_plan.seed"));
        } else if (pkey == "rules") {
          if (!pvalue.is_array()) {
            throw std::invalid_argument("config_from_json: fault_plan.rules array");
          }
          for (const auto& rvalue : pvalue.as_array()) {
            mw::FaultRule rule;
            for (const auto& [rkey, rv] : rvalue.as_object()) {
              if (rkey == "topic_prefix") rule.topic_prefix = rv.as_string();
              else if (rkey == "topic_suffix") rule.topic_suffix = rv.as_string();
              else if (rkey == "source") rule.source = rv.as_string();
              else if (rkey == "start_time_s") rule.start_time_s = number(rv, rkey.c_str());
              else if (rkey == "stop_time_s") rule.stop_time_s = number(rv, rkey.c_str());
              else if (rkey == "drop_probability") rule.drop_probability = number(rv, rkey.c_str());
              else if (rkey == "delay_probability") rule.delay_probability = number(rv, rkey.c_str());
              else if (rkey == "delay_steps") rule.delay_steps = static_cast<std::size_t>(number(rv, rkey.c_str()));
              else if (rkey == "duplicate_probability") rule.duplicate_probability = number(rv, rkey.c_str());
              else if (rkey == "reorder") {
                if (!rv.is_bool()) {
                  throw std::invalid_argument("config_from_json: reorder bool");
                }
                rule.reorder = rv.as_bool();
              } else unknown_key("fault_plan rule", rkey);
            }
            rule.validate();
            plan.rules.push_back(std::move(rule));
          }
        } else unknown_key("fault_plan", pkey);
      }
      config.fault_plan = std::move(plan);
    } else if (key == "area") {
      for (const auto& [akey, avalue] : value.as_object()) {
        if (akey == "east_min") config.area.east_min = number(avalue, akey.c_str());
        else if (akey == "east_max") config.area.east_max = number(avalue, akey.c_str());
        else if (akey == "north_min") config.area.north_min = number(avalue, akey.c_str());
        else if (akey == "north_max") config.area.north_max = number(avalue, akey.c_str());
        else unknown_key("area", akey);
      }
    } else if (key == "coverage") {
      for (const auto& [ckey, cvalue] : value.as_object()) {
        if (ckey == "altitude_m") config.coverage.altitude_m = number(cvalue, ckey.c_str());
        else if (ckey == "lane_spacing_m") config.coverage.lane_spacing_m = number(cvalue, ckey.c_str());
        else if (ckey == "along_track_spacing_m") config.coverage.along_track_spacing_m = number(cvalue, ckey.c_str());
        else unknown_key("coverage", ckey);
      }
    } else if (key == "battery_fault") {
      BatteryFaultEvent ev;
      for (const auto& [ekey, evalue] : value.as_object()) {
        if (ekey == "uav") ev.uav = evalue.as_string();
        else if (ekey == "time_s") ev.time_s = number(evalue, ekey.c_str());
        else if (ekey == "soc_after") ev.soc_after = number(evalue, ekey.c_str());
        else if (ekey == "temp_c") ev.temp_c = number(evalue, ekey.c_str());
        else unknown_key("battery_fault", ekey);
      }
      config.battery_fault = ev;
    } else if (key == "spoofing") {
      SpoofingEvent ev;
      for (const auto& [ekey, evalue] : value.as_object()) {
        if (ekey == "uav") ev.uav = evalue.as_string();
        else if (ekey == "time_s") ev.time_s = number(evalue, ekey.c_str());
        else if (ekey == "walk_mps") ev.walk_mps = number(evalue, ekey.c_str());
        else unknown_key("spoofing", ekey);
      }
      config.spoofing = ev;
    } else {
      unknown_key("config", key);
    }
  }
  return config;
}

void save_config(const RunnerConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_config: cannot open " + path);
  out << config_to_json(config).to_json() << '\n';
}

RunnerConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_config: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return config_from_json(eddi::ode::parse_json(buffer.str()));
}

}  // namespace sesame::platform
