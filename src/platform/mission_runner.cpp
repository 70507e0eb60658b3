#include "sesame/platform/mission_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <ranges>
#include <stdexcept>
#include <unordered_map>

#include "sesame/geo/geodesy.hpp"
#include "sesame/platform/design_assets.hpp"
#include "sesame/security/attack_tree.hpp"

namespace sesame::platform {

namespace {

// Mission-area anchor (Nicosia test field, as in the KIOS deployments).
const geo::GeoPoint kOrigin{35.1856, 33.3823, 0.0};

sinadra::AltitudeBand altitude_band(double altitude_m) {
  if (altitude_m < 25.0) return sinadra::AltitudeBand::kLow;
  if (altitude_m < 45.0) return sinadra::AltitudeBand::kMedium;
  return sinadra::AltitudeBand::kHigh;
}

}  // namespace

void apply_action(sim::Uav& uav, conserts::UavAction action) {
  switch (action) {
    case conserts::UavAction::kContinueExtended:
    case conserts::UavAction::kContinue:
      if (uav.mode() == sim::FlightMode::kHold) uav.command_resume_mission();
      break;
    case conserts::UavAction::kHold:
      uav.command_hold();
      break;
    case conserts::UavAction::kReturnToBase:
      uav.command_return_to_base();
      break;
    case conserts::UavAction::kEmergencyLand:
      uav.command_emergency_land();
      break;
  }
}

MissionRunner::MissionRunner(RunnerConfig config)
    : config_(std::move(config)) {
  if (config_.n_uavs == 0) throw std::invalid_argument("MissionRunner: no UAVs");
  if (config_.dt_s <= 0.0 || config_.max_time_s <= 0.0 ||
      config_.consert_period_s <= 0.0 ||
      config_.telemetry_staleness_window_s <= 0.0 ||
      config_.health_heartbeat_period_s <= 0.0) {
    throw std::invalid_argument("MissionRunner: non-positive timing");
  }
  if (!config_.fault_plan) {
    // CI stress hook: a plan file named in the environment applies to every
    // runner that was not given an explicit plan.
    if (const char* path = std::getenv("SESAME_FAULT_PLAN")) {
      config_.fault_plan = mw::load_fault_plan(path);
    }
  }
  comm_link_ = sim::CommLink(config_.comm_link);
  setup_world();
  // Event targets are named in the config; resolve them once (throws
  // std::out_of_range on an unknown vehicle).
  if (config_.battery_fault) {
    battery_fault_ix_ =
        world_->uav_by_name(config_.battery_fault->uav).fleet_index();
  }
  if (config_.spoofing) {
    spoof_ix_ = world_->uav_by_name(config_.spoofing->uav).fleet_index();
  }
  if (config_.sesame_enabled) setup_sesame();
}

void MissionRunner::setup_world() {
  world_ = std::make_unique<sim::World>(kOrigin, config_.seed);

  for (std::size_t i = 0; i < config_.n_uavs; ++i) {
    sim::UavConfig uc;
    uc.name = "uav" + std::to_string(i + 1);
    uc.mission_altitude_m = config_.coverage.altitude_m;
    names_.push_back(uc.name);
    // Bases spread along the southern edge of the area.
    const geo::EnuPoint home_enu{
        config_.area.east_min +
            (static_cast<double>(i) + 0.5) * config_.area.width() /
                static_cast<double>(config_.n_uavs),
        config_.area.north_min - 20.0, 0.0};
    home_enu_.push_back(home_enu);
    world_->add_uav(uc, world_->frame().to_geo(home_enu));
  }

  // Persons scattered uniformly across the mission area.
  for (std::size_t p = 0; p < config_.n_persons; ++p) {
    world_->add_person(
        {world_->rng().uniform(config_.area.east_min, config_.area.east_max),
         world_->rng().uniform(config_.area.north_min, config_.area.north_max),
         0.0});
  }

  plans_ = sar::plan_coverage(config_.area, config_.n_uavs, config_.coverage);
  std::vector<std::size_t> fleet(names_.size());
  std::iota(fleet.begin(), fleet.end(), std::size_t{0});
  mission_ = std::make_unique<sar::SarMission>(*world_, fleet, plans_);
  mission_->enable_coverage_tracking(config_.area);

  if (config_.fault_plan) {
    fault_injector_ = std::make_unique<mw::FaultInjector>(*config_.fault_plan);
    fault_policy_sub_ = world_->bus().add_delivery_policy(fault_injector_.get());
  }
  if (config_.lossy_links) {
    sim::LossyLinkConfig llc;
    llc.link = config_.comm_link;
    // GCS at the middle of the southern base line, level with the pads.
    llc.gcs_enu = {(config_.area.east_min + config_.area.east_max) / 2.0,
                   config_.area.north_min - 20.0, 0.0};
    // Fading/drop stream decoupled from the world seed so turning the link
    // model on never changes trajectories of the same-seed clean run.
    llc.seed = config_.seed ^ 0x9E3779B97F4A7C15ULL;
    world_->enable_lossy_links(llc);
  }

  // Telemetry-staleness watchdog: track the newest *received* sample per
  // UAV. max() keeps reordered or delayed arrivals from rolling time back.
  last_telemetry_rx_s_.assign(names_.size(), 0.0);
  watchdog_demoted_.assign(names_.size(), 0);
  swap_until_.assign(names_.size(), -1.0);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    telemetry_subscriptions_.push_back(world_->bus().subscribe<sim::Telemetry>(
        sim::telemetry_topic(names_[i]),
        [this, i](const mw::MessageHeader&, const sim::Telemetry& t) {
          auto& last = last_telemetry_rx_s_[i];
          last = std::max(last, t.time_s);
        }));
  }

  // Vehicle-level fault timetable; composes with the message-level
  // fault_plan above (both can be active in one run).
  if (config_.failure_schedule) {
    vehicle_failures_ = std::make_unique<sim::FailureInjector>(
        *world_, *config_.failure_schedule);
  }
  invariants_ = std::make_unique<InvariantChecker>(config_.invariants);
  if (config_.recovery_enabled) setup_recovery();

  for (std::size_t i = 0; i < names_.size(); ++i) {
    world_->uav(i).command_takeoff();
  }
}

void MissionRunner::setup_recovery() {
  world_->enable_health_heartbeats(config_.health_heartbeat_period_s);
  last_health_rx_s_.assign(names_.size(), 0.0);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    health_subscriptions_.push_back(
        world_->bus().subscribe<sim::HealthHeartbeat>(
            sim::health_topic(names_[i]),
            [this, i](const mw::MessageHeader&,
                      const sim::HealthHeartbeat& hb) {
              auto& last = last_health_rx_s_[i];
              last = std::max(last, hb.time_s);
            }));
  }

  RecoveryHooks hooks;
  hooks.ping = [this](std::size_t i) {
    // The ping rides the bus so a blacked-out vehicle genuinely misses it;
    // a reachable one answers with an immediate telemetry publication.
    world_->bus().publish(sim::ping_topic(names_[i]), world_->time_s(), "gcs",
                          world_->time_s());
  };
  hooks.demote = [this](std::size_t i) { set_comm_demoted(i, true); };
  hooks.command_rth = [this](std::size_t i) {
    apply_action(world_->uav(i), conserts::UavAction::kReturnToBase);
  };
  hooks.declare_lost = [this](std::size_t i) { declare_lost(i); };
  RecoveryConfig rc = config_.recovery;
  // The escalation window tracks the watchdog window unless overridden.
  rc.staleness_window_s =
      std::max(rc.staleness_window_s, config_.telemetry_staleness_window_s);
  recovery_ =
      std::make_unique<RecoveryManager>(names_, rc, std::move(hooks));
}

void MissionRunner::set_comm_demoted(std::size_t i, bool demoted) {
  std::uint8_t& flag = watchdog_demoted_[i];
  if (static_cast<bool>(flag) == demoted) return;  // edge-triggered
  flag = demoted ? 1 : 0;
  if (obs_ != nullptr) {
    const std::string& name = names_[i];
    if (demoted) {
      if (i < comm_demotion_counters_.size() &&
          comm_demotion_counters_[i] != nullptr) {
        comm_demotion_counters_[i]->inc();
      }
      obs_->tracer.event("sesame.platform.comm_demoted",
                         {{"uav", name},
                          {"t_s", obs::attr_value(world_->time_s())}});
    } else {
      obs_->tracer.event("sesame.platform.comm_rearmed",
                         {{"uav", name},
                          {"t_s", obs::attr_value(world_->time_s())}});
    }
  }
}

void MissionRunner::update_watchdog() {
  const double now_s = world_->time_s();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const double staleness_s = std::max(0.0, now_s - last_telemetry_rx_s_[i]);
    set_comm_demoted(i, staleness_s > config_.telemetry_staleness_window_s);
  }
}

double MissionRunner::recovery_staleness_s(std::size_t i) const {
  // Last contact of any kind: telemetry or health heartbeat. Heartbeats
  // dodge the lossy-link model (they are small and heavily coded), so a
  // vehicle only looks silent when its radio is genuinely gone.
  double last = i < last_telemetry_rx_s_.size() ? last_telemetry_rx_s_[i] : 0.0;
  if (i < last_health_rx_s_.size()) last = std::max(last, last_health_rx_s_[i]);
  return std::max(0.0, world_->time_s() - last);
}

double MissionRunner::failure_onset_s(std::size_t i) const {
  if (!config_.failure_schedule) return -1.0;
  double onset = -1.0;
  for (const auto& e : config_.failure_schedule->events) {
    if (e.uav != names_[i]) continue;
    if (e.mode != sim::FailureMode::kHardCrash &&
        e.mode != sim::FailureMode::kCommsBlackout) {
      continue;
    }
    if (onset < 0.0 || e.time_s < onset) onset = e.time_s;
  }
  return onset;
}

std::optional<std::size_t> MissionRunner::pick_takeover(
    std::size_t failed) const {
  std::optional<std::size_t> takeover;
  std::size_t best_load = ~std::size_t{0};
  for (const std::size_t candidate : mission_->active_uavs()) {
    if (candidate == failed) continue;
    if (recovery_ && recovery_->lost(candidate)) continue;
    const sim::Uav& c = world_->uav(candidate);
    if (!c.airborne() || c.mode() == sim::FlightMode::kEmergencyLand ||
        c.mode() == sim::FlightMode::kReturnToBase) {
      continue;
    }
    if (c.waypoints_remaining() < best_load) {
      best_load = c.waypoints_remaining();
      takeover = candidate;
    }
  }
  return takeover;
}

void MissionRunner::note_replan(std::size_t from, std::size_t to) {
  ++recovery_replans_;
  if (first_replan_time_s_ < 0.0) first_replan_time_s_ = world_->time_s();
  if (obs_ != nullptr) {
    obs_->tracer.event("sesame.recovery.replan",
                       {{"from", names_[from]},
                        {"to", names_[to]},
                        {"t_s", obs::attr_value(world_->time_s())}});
  }
}

void MissionRunner::declare_lost(std::size_t i) {
  // The wreck's in-flight traffic must not arrive after the write-off.
  world_->drop_pending_from(i);

  if (!mission_->is_active(i)) return;

  // In SESAME runs the ConSert dropped-out path may already have moved the
  // wreck's waypoints to a survivor (it reacts within one evaluation
  // period). Nothing left to absorb: just strike the vehicle off the
  // mission roster so the lost_uav_serving invariant sees it inert.
  if (world_->uav(i).waypoints_remaining() == 0) {
    mission_->retire(i);
    return;
  }

  // Re-plan coverage: hand the lost vehicle's remaining waypoints to the
  // least-loaded surviving mission vehicle.
  if (const auto takeover = pick_takeover(i)) {
    recovery_redistributed_ += mission_->redistribute(i, *takeover);
    world_->uav(*takeover).command_resume_mission();
    note_replan(i, *takeover);
  } else {
    // No survivor can absorb the tasks: retire the vehicle so the mission
    // stops counting it (its remaining coverage is abandoned).
    mission_->retire(i);
  }
}

double MissionRunner::staleness_s(std::size_t i) const {
  if (i >= last_telemetry_rx_s_.size()) return 0.0;
  return std::max(0.0, world_->time_s() - last_telemetry_rx_s_[i]);
}

double MissionRunner::telemetry_staleness_s(const std::string& name) const {
  return staleness_s(world_->uav_by_name(name).fleet_index());
}

void MissionRunner::setup_sesame() {
  // IDS + Security EDDI watching the fix channels.
  ids_ = std::make_unique<security::IntrusionDetectionSystem>(world_->bus());
  std::unordered_map<std::string, std::size_t> fix_topic_uav;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const std::string topic = sim::position_fix_topic(names_[i]);
    ids_->authorize(topic, "collaborative_localization");
    ids_->track_position_topic(topic);
    fix_topic_uav.emplace(topic, i);
  }
  security_ = std::make_shared<security::SecurityEddi>(
      world_->bus(), security::make_spoofing_attack_tree());

  // Per-UAV attack attribution from the alert stream.
  compromised_.assign(names_.size(), 0);
  alert_subscription_ = world_->bus().subscribe<security::IdsAlert>(
      security::ids_alert_topic(),
      [this, fix_topic_uav = std::move(fix_topic_uav)](
          const mw::MessageHeader&, const security::IdsAlert& alert) {
        const auto it = fix_topic_uav.find(alert.topic);
        if (it != fix_topic_uav.end()) compromised_[it->second] = 1;
      });

  const std::shared_ptr<const DesignAssets> design =
      design_library().get(config_);
  config_.eddi.safeml = design->safeml;
  config_.eddi.dk_uncertainty_baseline = design->dk_uncertainty_baseline;
  // Aliasing handles: every vehicle shares the one model and analyzer, and
  // each keeps the whole asset bundle alive.
  const std::shared_ptr<const deepknowledge::Mlp> dk_model(
      design, &design->dk_model);
  const std::shared_ptr<const deepknowledge::Analyzer> dk_analyzer(
      design, &design->dk_analyzer);

  eddis_.reserve(names_.size());
  for (const auto& name : names_) {
    auto e = std::make_unique<eddi::UavEddi>(name, config_.eddi,
                                             design->safeml_reference);
    e->attach_security(security_);
    e->attach_deepknowledge(dk_model, dk_analyzer, 16);
    eddis_.push_back(std::move(e));
    conserts::add_uav_conserts(consert_network_, name);
  }
  assurance_trace_ =
      std::make_unique<conserts::AssuranceTrace>(consert_network_);
  uav_slots_.reserve(names_.size());
  for (const auto& name : names_) {
    uav_slots_.push_back(
        conserts::uav_slots(assurance_trace_->network(), name));
  }
}

void MissionRunner::attach_observability(obs::Observability& o) {
  obs_ = &o;
  world_->set_metrics(&o.metrics);
  if (ids_) ids_->set_observability(&o);
  ticks_counter_ = &o.metrics.counter("sesame.mission.ticks_total");
  consert_evals_counter_ = &o.metrics.counter("sesame.mission.consert_evals_total");
  staleness_gauges_.assign(names_.size(), nullptr);
  comm_demotion_counters_.assign(names_.size(), nullptr);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const auto& name = names_[i];
    staleness_gauges_[i] = &o.metrics.gauge(
        "sesame.platform.telemetry_staleness_s", {{"uav", name}});
    comm_demotion_counters_[i] = &o.metrics.counter(
        "sesame.platform.comm_demotions_total", {{"uav", name}});
  }
  if (recovery_) recovery_->attach_observability(&o);
  if (invariants_) invariants_->attach_observability(&o);
}

eddi::EddiInputs MissionRunner::gather_inputs(std::size_t i) {
  const sim::Uav& uav = world_->uav(i);
  eddi::EddiInputs in;
  in.dt_s = config_.dt_s;
  in.telemetry.battery_soc = uav.battery().soc();
  in.telemetry.battery_temp_c = uav.battery().temperature_c();
  // Jetson junction temperature tracks ambient plus compute load.
  in.telemetry.processor_temp_c = 45.0 + (uav.airborne() ? 10.0 : 0.0);
  in.telemetry.motors_failed = uav.motors_failed();

  const double alt = uav.true_position().up_m;
  if (uav.airborne() && alt > 1.0 && uav.vision_sensor_healthy()) {
    const auto& detector = mission_->detector();
    in.frame_features = detector.frame_features(alt, world_->rng()).as_vector();
    // DeepKnowledge channel: per-detection features of this tick's frame.
    perception::Detection d;
    d.confidence = std::clamp(
        world_->rng().normal(detector.detection_probability(alt), 0.08), 0.01,
        0.999);
    in.detection_features = {detector.detection_features(d, alt, world_->rng())};
  }
  in.altitude_band = altitude_band(alt);
  in.visibility = sinadra::Visibility::kGood;
  in.density = config_.n_persons > 5 ? sinadra::PersonDensity::kDense
                                     : sinadra::PersonDensity::kSparse;
  in.gps_fix_available = !uav.gps().signal_lost() && !uav.gps().disabled();
  in.vision_sensor_healthy = uav.vision_sensor_healthy();
  // C2 link quality at the range from the ground station (home pad),
  // gated by the staleness watchdog: a link budget that looks fine on
  // paper is still not good evidence when no telemetry actually arrives.
  // The watchdog flag is edge-triggered (one demotion per outage, single
  // re-arm on recovery) and updated at the top of every tick, so the
  // evidence stream is identical to comparing raw staleness here.
  in.comm_link_good =
      comm_link_.usable(
          geo::enu_ground_distance_m(uav.true_position(), home_enu_[i])) &&
      watchdog_demoted_[i] == 0;
  // A nearby airborne fleet member within 250 m can assist (CL
  // availability). Grid-backed: the all-pairs scan dominated the tick at
  // fleet scale.
  in.nearby_uav_available =
      world_->has_neighbor_within(i, 250.0, /*airborne_only=*/true);
  return in;
}

void MissionRunner::baseline_policy(std::size_t i) {
  sim::Uav& uav = world_->uav(i);
  constexpr double kPendingLanding = 1e18;
  constexpr double kNoSwap = -1.0;
  double& swap_at = swap_until_[i];

  // Swap pending or in progress.
  if (swap_at != kNoSwap) {
    if (uav.mode() == sim::FlightMode::kLanded) {
      if (swap_at >= kPendingLanding) {
        // Just touched down: start the swap clock.
        swap_at = world_->time_s() + config_.battery_swap_time_s;
      } else if (world_->time_s() >= swap_at &&
                 !(recovery_ && recovery_->demoted(i))) {
        // Swap done: relaunch. A vehicle that recovery has demoted (silent
        // on the pad) stays down until its link recovers; once written off
        // it never relaunches.
        uav.battery().swap();
        swap_at = kNoSwap;
        uav.command_takeoff();
      }
    }
    return;
  }

  // Naive firmware reaction: low pack -> return, swap, resume.
  if (uav.airborne() && uav.battery().soc() < config_.baseline_rtb_soc &&
      uav.waypoints_remaining() > 0) {
    uav.command_return_to_base();
    swap_at = kPendingLanding;
  }
}

void MissionRunner::inject_spoofed_fix() {
  const auto& ev = *config_.spoofing;
  const sim::Uav& victim = world_->uav(spoof_ix_);
  // Once the victim is grounded (safe-landed), the attacker gives up.
  if (!victim.airborne()) return;
  spoof_offset_m_ += ev.walk_mps * config_.dt_s;
  const geo::GeoPoint fake =
      geo::destination(victim.true_geo(), 90.0, spoof_offset_m_);
  world_->bus().publish(sim::position_fix_topic(names_[spoof_ix_]), fake,
                        "attacker", world_->time_s());
}

void MissionRunner::start_spoof_response(RunnerResult& result) {
  spoof_response_started_ = true;
  result.attack_detected = true;
  result.attack_detection_time_s = world_->time_s();

  const std::size_t victim = spoof_ix_;
  // Stop trusting the compromised navigation input (ConSert mitigation).
  world_->uav(victim).gps().set_disabled(true);

  // Hand the victim's remaining tasks to a continuing fleet member.
  if (mission_->is_active(victim)) {
    for (const std::size_t candidate : mission_->active_uavs()) {
      if (candidate == victim) continue;
      if (world_->uav(candidate).airborne()) {
        result.waypoints_redistributed +=
            mission_->redistribute(victim, candidate);
        break;
      }
    }
  }

  // Collaborative Localization brings it home without GPS (Fig. 7).
  std::vector<std::string> assistants;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (i != victim) assistants.push_back(names_[i]);
  }
  if (!assistants.empty()) {
    localization::ObservationModel model;
    model.detection_range_m = 800.0;
    model.detection_probability = 0.95;
    cl_ = std::make_unique<localization::CollaborativeLocalizer>(
        *world_, names_[victim], assistants, model);
    geo::EnuPoint pad = home_enu_[victim];
    pad.up_m = config_.coverage.altitude_m;
    landing_guide_ = std::make_unique<localization::SafeLandingGuide>(
        *world_, *cl_, pad);
  }
}

RunnerResult MissionRunner::run() {
  RunnerResult result;

  // Tracing: one root span for the run, one child span per fleet phase
  // (launch -> search -> recovery), plus per-evaluation spans below. All
  // inert when no observability is attached.
  obs::Span run_span;
  obs::Span phase_span;
  std::string phase_name;
  const auto end_phase = [&] {
    if (phase_span.recording()) {
      phase_span.set_attribute("t_end_s", world_->time_s());
    }
    phase_span.end();
  };
  const auto begin_phase = [&](const std::string& next) {
    phase_name = next;
    if (obs_ == nullptr) return;
    end_phase();
    phase_span = obs_->tracer.start_span(
        "sesame.mission.phase",
        {{"phase", next}, {"t_start_s", obs::attr_value(world_->time_s())}});
  };
  if (obs_ != nullptr) {
    run_span = obs_->tracer.start_span(
        "sesame.mission.run",
        {{"uavs", std::to_string(names_.size())},
         {"sesame", config_.sesame_enabled ? "on" : "off"}});
  }
  begin_phase("launch");

  const std::size_t n = names_.size();
  const auto fleet = std::views::iota(std::size_t{0}, n);
  std::vector<double> productive_s(n, 0.0);
  std::vector<conserts::UavAction> current_action(
      n, conserts::UavAction::kContinue);
  std::vector<std::vector<UavTickRecord>> series(n);
  double next_consert_eval = 0.0;

  while (world_->time_s() < config_.max_time_s) {
    // Event injection.
    if (config_.battery_fault && !fault_injected_ &&
        world_->time_s() >= config_.battery_fault->time_s) {
      world_->uav(battery_fault_ix_)
          .battery()
          .inject_thermal_fault(config_.battery_fault->soc_after,
                                config_.battery_fault->temp_c);
      fault_injected_ = true;
    }

    world_->step(config_.dt_s);
    if (vehicle_failures_) vehicle_failures_->step(world_->time_s());
    update_watchdog();
    if (recovery_) {
      recovery_->step(world_->time_s(), [this](std::size_t i) {
        return recovery_staleness_s(i);
      });
      // Hard energy floor: a serving vehicle that sinks below the reserve
      // needed to make it home is recalled regardless of what the
      // assurance lattice currently permits.
      for (std::size_t i = 0; i < n; ++i) {
        sim::Uav& uav = world_->uav(i);
        if (sim::serving(uav.mode()) &&
            uav.battery().soc() < config_.recovery.min_soc_rtb) {
          uav.command_return_to_base();
        }
      }
    }
    if (ticks_counter_ != nullptr) ticks_counter_->inc();
    if (phase_name == "launch" &&
        std::ranges::all_of(fleet, [&](std::size_t i) {
          return world_->uav(i).mode() != sim::FlightMode::kTakeoff;
        })) {
      begin_phase("search");
    }

    // Spoofing attack and (SESAME-only) automated response.
    if (config_.spoofing && world_->time_s() >= config_.spoofing->time_s) {
      inject_spoofed_fix();
      result.spoofed_uav_peak_error_m =
          std::max(result.spoofed_uav_peak_error_m,
                   world_->uav(spoof_ix_).estimation_error_m());
      if (config_.sesame_enabled && !spoof_response_started_ && security_ &&
          security_->attack_detected()) {
        start_spoof_response(result);
      }
    }
    if (landing_guide_) {
      landing_guide_->step();
      if (landing_guide_->landed() &&
          result.spoofed_uav_landing_error_m < 0.0) {
        result.spoofed_uav_landing_error_m =
            landing_guide_->true_distance_to_target_m();
      }
    }

    mission_->tick();
    // Safety invariant: every detection credited this tick must come from
    // a live vehicle with a healthy camera.
    for (const std::size_t i : mission_->last_tick_detectors()) {
      const sim::Uav& uav = world_->uav(i);
      invariants_->check_detection_source(world_->time_s(), names_[i],
                                          uav.vision_sensor_healthy(),
                                          uav.mode());
    }

    // Per-UAV assessment and control.
    std::vector<conserts::UavAction> actions;
    const bool consert_due = world_->time_s() >= next_consert_eval;
    if (consert_due) next_consert_eval += config_.consert_period_s;

    if (config_.sesame_enabled) {
      // EDDIs tick every step (their trackers and monitors integrate over
      // time, and gather_inputs draws world randomness); the evidence is
      // only written on ConSert-evaluation ticks, since consert_evidence()
      // is a pure read of the EDDI state.
      for (std::size_t i = 0; i < n; ++i) eddis_[i]->tick(gather_inputs(i));
      if (consert_due) {
        conserts::CompiledNetwork& network = assurance_trace_->network();
        for (std::size_t i = 0; i < n; ++i) {
          const auto& name = names_[i];
          auto evidence = eddis_[i]->consert_evidence();
          // Per-UAV attribution: only vehicles whose own channels were
          // attacked lose the no-attack evidence.
          evidence.no_security_attack = compromised_[i] == 0;
          // Safety invariant: ConSert demands must never be satisfied by
          // stale evidence — comm_link_good asserted while the telemetry
          // feeding it has gone silent is a checker violation.
          invariants_->check_evidence_fresh(world_->time_s(), name,
                                            evidence.comm_link_good,
                                            staleness_s(i));
          conserts::write_evidence(network, uav_slots_[i], evidence);
        }
        obs::Span eval_span;
        if (obs_ != nullptr) {
          eval_span = obs_->tracer.start_span(
              "sesame.mission.consert_eval",
              {{"t_s", obs::attr_value(world_->time_s())}});
          consert_evals_counter_->inc();
        }
        assurance_trace_->evaluate(world_->time_s());
        for (std::size_t i = 0; i < n; ++i) {
          auto action = conserts::uav_action(network, uav_slots_[i]);
          const auto& assessment = eddis_[i]->assessment();
          // Safety EDDI corrective action overrides the lattice: crossing
          // the abort threshold forces an emergency landing (Fig. 5).
          if (assessment.reliability.abort_recommended) {
            action = conserts::UavAction::kEmergencyLand;
          }
          current_action[i] = action;
          apply_action(world_->uav(i), action);
        }
        // Mission-level task redistribution (Fig. 1 decider): a UAV that
        // dropped out with tasks pending hands its remaining waypoints to a
        // continuing fleet member.
        const auto active = mission_->active_uavs();
        for (const std::size_t i : active) {
          const sim::Uav& uav = world_->uav(i);
          const bool dropped_out = uav.mode() == sim::FlightMode::kEmergencyLand ||
                                   uav.mode() == sim::FlightMode::kReturnToBase ||
                                   uav.mode() == sim::FlightMode::kLanded ||
                                   uav.mode() == sim::FlightMode::kCrashed;
          if (!dropped_out || uav.waypoints_remaining() == 0) continue;
          if (const auto takeover = pick_takeover(i)) {
            const std::size_t moved = mission_->redistribute(i, *takeover);
            result.waypoints_redistributed += moved;
            world_->uav(*takeover).command_resume_mission();
            // A crashed vehicle's absorption is a fleet-recovery re-plan:
            // the chaos campaign's time_to_replan metric measures the
            // fastest responder, whichever path that is.
            if (moved > 0 && uav.mode() == sim::FlightMode::kCrashed) {
              note_replan(i, *takeover);
            }
          }
        }

        // Section V-B adaptation: persistent over-threshold uncertainty
        // demands a descend-and-rescan.
        const bool exceeded = std::any_of(
            eddis_.begin(), eddis_.end(), [](const auto& e) {
              return e->assessment().uncertainty_exceeded;
            });
        over_threshold_streak_ = exceeded ? over_threshold_streak_ + 1 : 0;
        if (!descended_ && over_threshold_streak_ >= config_.descend_patience) {
          // SINADRA descend-and-RESCAN: each UAV re-plans its strip at the
          // low altitude, with lane spacing shrunk to match the smaller
          // footprint, and sweeps it again — persons possibly missed at
          // the unreliable high altitude get a second, accurate pass.
          sar::CoverageConfig low = config_.coverage;
          low.altitude_m = config_.descend_altitude_m;
          low.lane_spacing_m = config_.coverage.lane_spacing_m *
                               config_.descend_altitude_m /
                               config_.coverage.altitude_m;
          for (std::size_t i = 0; i < n; ++i) {
            if (!mission_->is_active(i)) {
              continue;  // dropped out: its strip went to another UAV
            }
            sim::Uav& uav = world_->uav(i);
            uav.clear_waypoints();
            const auto replanned = sar::plan_coverage(plans_[i].strip, 1, low);
            for (const auto& wp : replanned.at(0).waypoints) {
              uav.add_waypoint(wp);
            }
            uav.command_resume_mission();
          }
          descended_ = true;
        }
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) baseline_policy(i);
    }

    // Recording.
    for (std::size_t i = 0; i < n; ++i) {
      const auto& name = names_[i];
      const sim::Uav& uav = world_->uav(i);
      UavTickRecord rec;
      rec.time_s = world_->time_s();
      rec.soc = uav.battery().soc();
      rec.battery_temp_c = uav.battery().temperature_c();
      rec.mode = uav.mode();
      rec.altitude_m = uav.true_position().up_m;
      rec.action = current_action[i];
      if (config_.sesame_enabled) {
        const auto& a = eddis_[i]->assessment();
        rec.p_fail = a.reliability.probability_of_failure;
        rec.sar_uncertainty = a.sar_uncertainty;
      }
      series[i].push_back(rec);
      if (i < staleness_gauges_.size() && staleness_gauges_[i] != nullptr) {
        staleness_gauges_[i]->set(staleness_s(i));
      }

      // Safety invariants checked once per tick per vehicle.
      invariants_->check_min_soc(world_->time_s(), name, rec.soc, rec.mode);
      if (recovery_ && recovery_->lost(i)) {
        invariants_->check_lost_uav_inactive(world_->time_s(), name,
                                             /*declared_lost=*/true, rec.mode,
                                             mission_->is_active(i));
      }

      // Available = airborne and able to serve (Fig. 5 availability).
      if (sim::serving(uav.mode())) productive_s[i] += config_.dt_s;
      actions.push_back(current_action[i]);
    }

    if (!result.mission_complete_time_s && mission_->complete()) {
      result.mission_complete_time_s = world_->time_s();
      if (obs_ != nullptr) {
        obs_->tracer.event("sesame.mission.complete",
                           {{"t_s", obs::attr_value(world_->time_s())}});
      }
      if (phase_name == "search") begin_phase("recovery");
    }

    // Stop when the mission is complete and everyone is grounded or idle,
    // with a grace period for the final landing.
    const bool all_grounded =
        std::ranges::all_of(fleet, [&](std::size_t i) {
          const auto mode = world_->uav(i).mode();
          return mode == sim::FlightMode::kLanded ||
                 mode == sim::FlightMode::kIdle ||
                 mode == sim::FlightMode::kHold ||
                 mode == sim::FlightMode::kCrashed;
        });
    if (result.mission_complete_time_s && all_grounded) break;

    result.final_decision = conserts::decide_mission(actions);
  }

  result.total_time_s = world_->time_s();
  result.detection = mission_->stats();
  result.descended = descended_;
  result.invariant_violations = invariants_->violations();
  result.recovery_replans = recovery_replans_;
  result.waypoints_redistributed += recovery_redistributed_;
  if (recovery_) {
    result.uavs_lost = recovery_->lost_uavs();
    result.recovery_pings = recovery_->pings_sent();
    result.recovery_demotions = recovery_->demotions();
    result.recovery_rth_commands = recovery_->rth_commands();
    // Time-to-detect / time-to-replan are measured from the scheduled
    // onset of the first silencing fault (hard crash or comms blackout)
    // of the earliest-lost vehicle; -1 when unknown.
    double earliest_lost = -1.0;
    std::optional<std::size_t> first_lost;
    for (std::size_t i = 0; i < n; ++i) {
      if (!recovery_->lost(i)) continue;
      const double t = recovery_->times(i).lost_s;
      if (earliest_lost < 0.0 || (t >= 0.0 && t < earliest_lost)) {
        earliest_lost = t;
        first_lost = i;
      }
    }
    if (first_lost) {
      const double onset = failure_onset_s(*first_lost);
      const double detect = recovery_->times(*first_lost).detect_s;
      if (onset >= 0.0 && detect >= onset) {
        result.time_to_detect_loss_s = detect - onset;
      }
      if (onset >= 0.0 && first_replan_time_s_ >= onset) {
        result.time_to_replan_s = first_replan_time_s_ - onset;
      }
    }
  }
  if (const auto* tracker = mission_->coverage()) {
    result.area_coverage = tracker->fraction_covered();
  }
  if (assurance_trace_) {
    result.assurance_trace = assurance_trace_->transitions();
  }
  double avail = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = productive_s[i] / result.total_time_s;
    result.availability_per_uav[names_[i]] = a;
    result.series[names_[i]] = std::move(series[i]);
    avail += a;
  }
  result.availability = avail / static_cast<double>(n);

  end_phase();
  if (run_span.recording()) {
    run_span.set_attribute("total_time_s", result.total_time_s);
    run_span.set_attribute("availability", result.availability);
    run_span.set_attribute(
        "decision", conserts::mission_decision_name(result.final_decision));
  }
  run_span.end();
  return result;
}

}  // namespace sesame::platform
