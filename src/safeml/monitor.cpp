#include "sesame/safeml/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::safeml {

std::string confidence_level_name(ConfidenceLevel c) {
  switch (c) {
    case ConfidenceLevel::kHigh: return "High";
    case ConfidenceLevel::kMedium: return "Medium";
    case ConfidenceLevel::kLow: return "Low";
  }
  return "unknown";
}

namespace {

/// Replaces one element equal to `out` in the ascending vector `s` by `in`,
/// keeping it ascending. Equivalent to erasing at lower_bound(out) and then
/// inserting at upper_bound(in), but shifts only the elements between the
/// two positions, once.
void replace_sorted(std::vector<double>& s, double out, double in) {
  const auto evict = std::lower_bound(s.begin(), s.end(), out);
  if (out <= in) {
    const auto after = std::upper_bound(evict, s.end(), in);
    std::move(evict + 1, after, evict);
    *(after - 1) = in;
  } else {
    const auto at = std::upper_bound(s.begin(), evict, in);
    std::move_backward(at, evict, evict + 1);
    *at = in;
  }
}

}  // namespace

Monitor::Monitor(MonitorConfig config, std::vector<std::vector<double>> reference)
    : config_(config), reference_sorted_(std::move(reference)) {
  if (reference_sorted_.empty()) {
    throw std::invalid_argument("Monitor: no reference features");
  }
  for (const auto& f : reference_sorted_) {
    if (f.empty()) throw std::invalid_argument("Monitor: empty reference sample");
  }
  if (config_.window < 2) throw std::invalid_argument("Monitor: window < 2");
  if (config_.full_scale <= 0.0) {
    throw std::invalid_argument("Monitor: full_scale <= 0");
  }
  if (!(config_.low_threshold < config_.high_threshold) ||
      config_.low_threshold < 0.0 || config_.high_threshold > 1.0) {
    throw std::invalid_argument("Monitor: bad thresholds");
  }
  for (auto& f : reference_sorted_) std::sort(f.begin(), f.end());
  fifo_.resize(config_.window * reference_sorted_.size());
  window_sorted_.resize(reference_sorted_.size());
  for (auto& w : window_sorted_) w.reserve(config_.window);
}

void Monitor::push(const std::vector<double>& features) {
  const std::size_t n = reference_sorted_.size();
  if (features.size() != n) {
    throw std::invalid_argument("Monitor::push: feature count mismatch");
  }
  for (const double v : features) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("Monitor::push: non-finite feature value");
    }
  }
  const bool evict = buffered_ == config_.window;
  const std::size_t row = evict ? oldest_ : buffered_;
  double* slot = fifo_.data() + row * n;
  for (std::size_t i = 0; i < n; ++i) {
    auto& w = window_sorted_[i];
    if (evict) {
      replace_sorted(w, slot[i], features[i]);
    } else {
      w.insert(std::upper_bound(w.begin(), w.end(), features[i]), features[i]);
    }
    slot[i] = features[i];
  }
  if (evict) {
    oldest_ = (oldest_ + 1) % config_.window;
  } else {
    ++buffered_;
  }
}

std::size_t Monitor::buffered() const noexcept { return buffered_; }

bool Monitor::ready() const noexcept { return buffered_ >= config_.window; }

std::vector<double> Monitor::per_feature_dissimilarity() const {
  if (!ready()) return {};
  std::vector<double> out;
  out.reserve(reference_sorted_.size());
  for (std::size_t i = 0; i < reference_sorted_.size(); ++i) {
    out.push_back(distance_sorted(config_.measure, reference_sorted_[i],
                                  window_sorted_[i]));
  }
  return out;
}

std::optional<Assessment> Monitor::assess() const {
  if (!ready()) return std::nullopt;
  // Summed in feature order, exactly as over per_feature_dissimilarity(),
  // without materialising the per-feature vector.
  double total = 0.0;
  for (std::size_t i = 0; i < reference_sorted_.size(); ++i) {
    total += distance_sorted(config_.measure, reference_sorted_[i],
                             window_sorted_[i]);
  }
  const double dissimilarity =
      total / static_cast<double>(reference_sorted_.size());
  Assessment a;
  a.dissimilarity = dissimilarity;
  a.confidence = std::clamp(1.0 - dissimilarity / config_.full_scale, 0.0, 1.0);
  a.level = classify(a.confidence);
  a.window_size = buffered_;
  return a;
}

void Monitor::reset() {
  for (auto& w : window_sorted_) w.clear();
  oldest_ = 0;
  buffered_ = 0;
}

ConfidenceLevel Monitor::classify(double confidence) const {
  if (confidence >= config_.high_threshold) return ConfidenceLevel::kHigh;
  if (confidence >= config_.low_threshold) return ConfidenceLevel::kMedium;
  return ConfidenceLevel::kLow;
}

}  // namespace sesame::safeml
