#include "sesame/eddi/uav_eddi.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::eddi {

UavEddi::UavEddi(std::string uav_name, UavEddiConfig config,
                 std::vector<std::vector<double>> safeml_reference)
    : name_(std::move(uav_name)), config_(config),
      reliability_(config_.reliability), battery_tracker_(config_.reliability.battery),
      safeml_(config_.safeml, std::move(safeml_reference)),
      risk_(config_.sinadra) {
  if (name_.empty()) throw std::invalid_argument("UavEddi: empty name");
  if (config_.uncertainty_floor < 0.0 || config_.uncertainty_span <= 0.0 ||
      config_.uncertainty_floor + config_.uncertainty_span > 1.0 + 1e-12) {
    throw std::invalid_argument("UavEddi: bad uncertainty calibration");
  }
  if (config_.reliability_horizon_s <= 0.0) {
    throw std::invalid_argument("UavEddi: non-positive horizon");
  }
}

void UavEddi::attach_deepknowledge(
    std::shared_ptr<const deepknowledge::Mlp> model,
    std::shared_ptr<const deepknowledge::Analyzer> analyzer, std::size_t window) {
  if (!model || !analyzer) {
    throw std::invalid_argument("attach_deepknowledge: null asset");
  }
  if (window < 2) throw std::invalid_argument("attach_deepknowledge: window < 2");
  dk_model_ = std::move(model);
  dk_analyzer_ = std::move(analyzer);
  dk_window_size_ = window;
  const std::size_t tk = dk_analyzer_->tk_neurons().size();
  dk_codes_.assign(window * tk, 0);
  dk_oldest_ = 0;
  dk_buffered_ = 0;
  dk_cell_hits_.assign(tk * dk_analyzer_->config().buckets, 0);
  dk_hit_cells_ = 0;
  dk_out_of_range_ = 0;
  dk_entering_.assign(tk, 0);
}

void UavEddi::dk_push(const std::vector<double>& features) {
  // Codes first: a rejected input leaves the window untouched.
  dk_analyzer_->bucket_codes(*dk_model_, features, dk_trace_, dk_entering_);
  const std::size_t tk = dk_entering_.size();
  const std::size_t buckets = dk_analyzer_->config().buckets;
  const std::size_t oor_code = dk_analyzer_->out_of_range_code();
  const bool evict = dk_buffered_ == dk_window_size_;
  std::size_t* row = dk_codes_.data() + (evict ? dk_oldest_ : dk_buffered_) * tk;
  for (std::size_t t = 0; t < tk; ++t) {
    if (evict) {
      if (row[t] == oor_code) {
        --dk_out_of_range_;
      } else if (--dk_cell_hits_[t * buckets + row[t]] == 0) {
        --dk_hit_cells_;
      }
    }
    row[t] = dk_entering_[t];
    if (row[t] == oor_code) {
      ++dk_out_of_range_;
    } else if (dk_cell_hits_[t * buckets + row[t]]++ == 0) {
      ++dk_hit_cells_;
    }
  }
  if (evict) {
    dk_oldest_ = (dk_oldest_ + 1) % dk_window_size_;
  } else {
    ++dk_buffered_;
  }
}

void UavEddi::attach_security(std::shared_ptr<security::SecurityEddi> security) {
  if (!security) throw std::invalid_argument("attach_security: null");
  security_ = std::move(security);
}

sinadra::PerceptionConfidence UavEddi::safeml_confidence_band() const {
  if (!assessment_.safeml.has_value()) {
    return sinadra::PerceptionConfidence::kUnknown;
  }
  switch (assessment_.safeml->level) {
    case safeml::ConfidenceLevel::kHigh:
      return sinadra::PerceptionConfidence::kHigh;
    case safeml::ConfidenceLevel::kMedium:
      return sinadra::PerceptionConfidence::kMedium;
    case safeml::ConfidenceLevel::kLow:
      return sinadra::PerceptionConfidence::kLow;
  }
  return sinadra::PerceptionConfidence::kUnknown;
}

sinadra::PerceptionConfidence UavEddi::dk_confidence_band() const {
  if (!assessment_.deepknowledge.has_value()) {
    return sinadra::PerceptionConfidence::kUnknown;
  }
  const double u = assessment_.deepknowledge->uncertainty;
  if (u < 0.35) return sinadra::PerceptionConfidence::kHigh;
  if (u < 0.70) return sinadra::PerceptionConfidence::kMedium;
  return sinadra::PerceptionConfidence::kLow;
}

const EddiAssessment& UavEddi::tick(const EddiInputs& inputs) {
  input_flags_.gps_quality_good = inputs.gps_fix_available;
  input_flags_.vision_sensor_healthy = inputs.vision_sensor_healthy;
  input_flags_.comm_link_good = inputs.comm_link_good;
  input_flags_.nearby_uav_available = inputs.nearby_uav_available;

  // SafeDrones reliability. Propulsion/processor/comms are prospective
  // risks over the configured horizon; the battery term is the *cumulative*
  // failure probability carried forward by the runtime tracker (the Fig. 5
  // curve rises monotonically after a thermal fault).
  battery_tracker_.observe_soc(inputs.telemetry.battery_soc);
  battery_tracker_.advance(inputs.dt_s, inputs.telemetry.battery_temp_c);
  const auto prospective = reliability_.evaluate_prospective(
      inputs.telemetry, config_.reliability_horizon_s);
  assessment_.reliability = reliability_.compose(
      prospective.p_propulsion, battery_tracker_.failure_probability(),
      prospective.p_processor, prospective.p_comms);

  // SafeML distribution-shift monitoring.
  if (!inputs.frame_features.empty()) {
    safeml_.push(inputs.frame_features);
    assessment_.safeml = safeml_.assess();
  }

  // DeepKnowledge coverage over a sliding detection-feature window.
  if (dk_analyzer_ && !inputs.detection_features.empty()) {
    for (const auto& f : inputs.detection_features) dk_push(f);
    if (dk_buffered_ == dk_window_size_) {
      assessment_.deepknowledge = dk_analyzer_->report(
          dk_hit_cells_, dk_out_of_range_, dk_codes_.size(), dk_window_size_);
    }
  }

  // SINADRA situation risk, fed by the monitor bands.
  sinadra::SituationEvidence situation;
  situation.altitude = inputs.altitude_band;
  situation.visibility = inputs.visibility;
  situation.density = inputs.density;
  situation.safeml = safeml_confidence_band();
  situation.deepknowledge = dk_confidence_band();
  assessment_.risk = risk_.assess(situation);

  // Combined SAR uncertainty (paper Section V-B): mean of the available
  // perception-health signals, calibrated onto the reported scale.
  double raw = 0.0;
  double weight = 0.0;
  if (assessment_.safeml.has_value()) {
    raw += 1.0 - assessment_.safeml->confidence;
    weight += 1.0;
  }
  if (assessment_.deepknowledge.has_value()) {
    const double baseline =
        std::min(config_.dk_uncertainty_baseline, 1.0 - 1e-9);
    raw += std::max(0.0, (assessment_.deepknowledge->uncertainty - baseline) /
                             (1.0 - baseline));
    weight += 1.0;
  }
  raw += assessment_.risk.criticality;
  weight += 1.0;
  raw /= weight;
  assessment_.sar_uncertainty =
      std::clamp(config_.uncertainty_floor + config_.uncertainty_span * raw,
                 0.0, 1.0);
  assessment_.uncertainty_exceeded =
      assessment_.sar_uncertainty > config_.uncertainty_threshold;

  ticked_ = true;
  return assessment_;
}

bool UavEddi::attack_detected() const {
  return security_ && security_->attack_detected();
}

conserts::UavEvidence UavEddi::consert_evidence() const {
  if (!ticked_) {
    throw std::logic_error("UavEddi::consert_evidence: tick() never called");
  }
  conserts::UavEvidence e = input_flags_;
  e.no_security_attack = !attack_detected();
  e.safeml_confidence_high =
      assessment_.safeml.has_value() &&
      assessment_.safeml->level == safeml::ConfidenceLevel::kHigh;
  switch (assessment_.reliability.level) {
    case safedrones::ReliabilityLevel::kHigh: e.reliability_high = true; break;
    case safedrones::ReliabilityLevel::kMedium:
      e.reliability_medium = true;
      break;
    case safedrones::ReliabilityLevel::kLow: e.reliability_low = true; break;
  }
  return e;
}

ode::Value UavEddi::to_ode() const {
  ode::Value doc;
  doc["ode_version"] = "0.1";
  doc["artefact"] = "EDDI";
  doc["system"] = name_;

  ode::Value models;
  {
    ode::Value m;
    m["type"] = "markov_reliability";
    m["technology"] = "SafeDrones";
    m["horizon_s"] = config_.reliability_horizon_s;
    m["abort_threshold"] = config_.reliability.abort_threshold;
    m["airframe_rotors"] =
        safedrones::rotor_count(config_.reliability.propulsion.airframe);
    models.push_back(m);
  }
  {
    ode::Value m;
    m["type"] = "statistical_distance_monitor";
    m["technology"] = "SafeML";
    m["measure"] = safeml::measure_name(config_.safeml.measure);
    m["window"] = config_.safeml.window;
    m["features"] = safeml_.num_features();
    models.push_back(m);
  }
  if (dk_analyzer_) {
    ode::Value m;
    m["type"] = "neuron_coverage_monitor";
    m["technology"] = "DeepKnowledge";
    m["tk_neurons"] = dk_analyzer_->tk_neurons().size();
    m["window"] = dk_window_size_;
    models.push_back(m);
  }
  {
    ode::Value m;
    m["type"] = "bayesian_risk_model";
    m["technology"] = "SINADRA";
    m["variables"] = risk_.network().num_variables();
    models.push_back(m);
  }
  if (security_) {
    ode::Value m;
    m["type"] = "attack_tree_monitor";
    m["technology"] = "SecurityEDDI";
    m["tree"] = security_->tree().name();
    models.push_back(m);
  }
  doc["models"] = models;

  ode::Value calibration;
  calibration["uncertainty_floor"] = config_.uncertainty_floor;
  calibration["uncertainty_span"] = config_.uncertainty_span;
  calibration["uncertainty_threshold"] = config_.uncertainty_threshold;
  doc["sar_uncertainty_calibration"] = calibration;
  return doc;
}

}  // namespace sesame::eddi
