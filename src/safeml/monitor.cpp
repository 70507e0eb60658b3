#include "sesame/safeml/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "measure_terms.hpp"

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

/// Moves the window copy of `out` in `p.value` to `in`'s place, keeping
/// the sequence ascending with reference copies first among equal values.
/// Shifts only the elements between the two positions, once, and returns
/// the first position whose walk term may have changed: the one before
/// the first element that moved (its step to the next value changed).
template <typename Pooled>
std::size_t replace_window_value(Pooled& p, double out, double in) {
  double* v = p.value.data();
  std::uint8_t* ref = p.from_reference.data();
  const std::size_t n = p.value.size();
  // Reference copies precede window copies among equal values, so the last
  // element equal to `out` is a window copy.
  const auto r = static_cast<std::size_t>(std::upper_bound(v, v + n, out) - v) - 1;
  if (out <= in) {
    const auto after =
        static_cast<std::size_t>(std::upper_bound(v + r, v + n, in) - v);
    std::move(v + r + 1, v + after, v + r);
    std::move(ref + r + 1, ref + after, ref + r);
    v[after - 1] = in;
    ref[after - 1] = 0;
    return r == 0 ? 0 : r - 1;
  }
  const auto at = static_cast<std::size_t>(std::upper_bound(v, v + r, in) - v);
  std::move_backward(v + at, v + r, v + r + 1);
  std::move_backward(ref + at, ref + r, ref + r + 1);
  v[at] = in;
  ref[at] = 0;
  return at == 0 ? 0 : at - 1;
}

/// Reference, window and pooled sample sizes of one feature.
template <typename Pooled>
detail::Sizes sizes(const Pooled& p, std::size_t window) {
  const double na = static_cast<double>(p.fa.size() - 1);
  const double nb = static_cast<double>(window);
  return {na, nb, na + nb};
}

/// The resumable walk: from position `from` on, accumulates the running
/// counts, folds a step of measure `M` at the last position of every run
/// of equal values (exactly the (fa, fb, dx) steps distance_sorted walks,
/// in the same order), and caches the statistics at every position.
template <Measure M, typename Pooled>
void walk_from(Pooled& p, const std::vector<double>& fb, std::size_t from,
               const detail::Sizes& sz) {
  constexpr bool kTwoStats = M == Measure::kKuiper;
  const std::size_t n = p.value.size();
  const double* v = p.value.data();
  const std::uint8_t* ref = p.from_reference.data();
  const double* fa = p.fa.data();
  const double* fbt = fb.data();
  std::size_t* count = p.reference_count.data();
  double* stat = p.stat.data();
  double* stat2 = kTwoStats ? p.stat2.data() : nullptr;
  std::size_t i = from > 0 ? count[from - 1] : 0;
  double s1 = from > 0 ? stat[from - 1] : 0.0;
  double s2 = kTwoStats && from > 0 ? stat2[from - 1] : 0.0;
  for (std::size_t k = from; k < n; ++k) {
    i += ref[k];
    count[k] = i;
    if (k + 1 == n) {
      detail::fold_step<M>(fa[i], fbt[k + 1 - i], 0.0, sz, s1, s2);
    } else if (v[k + 1] != v[k]) {
      detail::fold_step<M>(fa[i], fbt[k + 1 - i], v[k + 1] - v[k], sz, s1, s2);
    }
    stat[k] = s1;
    if constexpr (kTwoStats) stat2[k] = s2;
  }
}

}  // namespace

Monitor::Monitor(MonitorConfig config, std::vector<std::vector<double>> reference)
    : config_(config) {
  if (reference.empty()) {
    throw std::invalid_argument("Monitor: no reference features");
  }
  for (const auto& f : reference) {
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
  const double nb = static_cast<double>(config_.window);
  fb_.resize(config_.window + 1);
  for (std::size_t j = 0; j <= config_.window; ++j) {
    fb_[j] = static_cast<double>(j) / nb;
  }
  pooled_.resize(reference.size());
  for (std::size_t f = 0; f < reference.size(); ++f) {
    Pooled& p = pooled_[f];
    const std::size_t na = reference[f].size();
    const std::size_t total = na + config_.window;
    p.value = std::move(reference[f]);
    std::sort(p.value.begin(), p.value.end());
    p.value.reserve(total);
    p.from_reference.reserve(total);
    p.from_reference.assign(na, 1);
    p.reference_count.resize(total);
    p.stat.resize(total);
    if (config_.measure == Measure::kKuiper) p.stat2.resize(total);
    p.fa.resize(na + 1);
    for (std::size_t i = 0; i <= na; ++i) {
      p.fa[i] = static_cast<double>(i) / static_cast<double>(na);
    }
  }
  fifo_.resize(config_.window * pooled_.size());
}

void Monitor::push(const std::vector<double>& features) {
  const std::size_t n = pooled_.size();
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
    Pooled& p = pooled_[i];
    if (evict) {
      resum(p, replace_window_value(p, slot[i], features[i]));
    } else {
      const auto at =
          std::upper_bound(p.value.begin(), p.value.end(), features[i]);
      p.from_reference.insert(p.from_reference.begin() + (at - p.value.begin()),
                              std::uint8_t{0});
      p.value.insert(at, features[i]);
    }
    slot[i] = features[i];
  }
  if (evict) {
    oldest_ = (oldest_ + 1) % config_.window;
  } else if (++buffered_ == config_.window) {
    for (auto& p : pooled_) resum(p, 0);
  }
}

void Monitor::resum(Pooled& p, std::size_t from) {
  detail::dispatch(config_.measure, [&](auto measure) {
    walk_from<decltype(measure)::value>(p, fb_, from,
                                        sizes(p, config_.window));
  });
}

double Monitor::feature_distance(const Pooled& p) const {
  const double s2 = p.stat2.empty() ? 0.0 : p.stat2.back();
  return detail::dispatch(config_.measure, [&](auto measure) {
    return detail::finish<decltype(measure)::value>(
        p.stat.back(), s2, sizes(p, config_.window));
  });
}

std::size_t Monitor::buffered() const noexcept { return buffered_; }

bool Monitor::ready() const noexcept { return buffered_ >= config_.window; }

std::vector<double> Monitor::per_feature_dissimilarity() const {
  if (!ready()) return {};
  std::vector<double> out;
  out.reserve(pooled_.size());
  for (const auto& p : pooled_) out.push_back(feature_distance(p));
  return out;
}

std::optional<Assessment> Monitor::assess() const {
  if (!ready()) return std::nullopt;
  // Summed in feature order, exactly as over per_feature_dissimilarity(),
  // without materialising the per-feature vector.
  double total = 0.0;
  for (const auto& p : pooled_) total += feature_distance(p);
  const double dissimilarity = total / static_cast<double>(pooled_.size());
  Assessment a;
  a.dissimilarity = dissimilarity;
  a.confidence = std::clamp(1.0 - dissimilarity / config_.full_scale, 0.0, 1.0);
  a.level = classify(a.confidence);
  a.window_size = buffered_;
  return a;
}

void Monitor::reset() {
  for (auto& p : pooled_) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < p.value.size(); ++k) {
      if (p.from_reference[k] != 0) p.value[kept++] = p.value[k];
    }
    p.value.resize(kept);
    p.from_reference.assign(kept, 1);
  }
  oldest_ = 0;
  buffered_ = 0;
}

ConfidenceLevel Monitor::classify(double confidence) const {
  if (confidence >= config_.high_threshold) return ConfidenceLevel::kHigh;
  if (confidence >= config_.low_threshold) return ConfidenceLevel::kMedium;
  return ConfidenceLevel::kLow;
}

}  // namespace sesame::safeml
