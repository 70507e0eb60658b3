// Tests for SafeML: distance measures against hand-computed values and
// statistical properties, permutation testing, the sliding-window
// monitor's confidence mapping, and generated equivalence checks: the
// ECDF walk against a two-sided-merge oracle, and the monitor's running
// pooled sums against that oracle and against distance_sorted.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "sesame/mathx/rng.hpp"
#include "sesame/mathx/stats.hpp"
#include "sesame/safeml/distances.hpp"
#include "sesame/safeml/monitor.hpp"

namespace sml = sesame::safeml;
namespace mx = sesame::mathx;

namespace {

std::vector<double> normal_sample(mx::Rng& rng, std::size_t n, double mean,
                                  double sd) {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rng.normal(mean, sd));
  return out;
}

// ---------------------------------------------------------------------------
// Oracle: the monitor's original evaluation path, kept verbatim as a
// reference. It copies the arrival-order window, sorts it, and walks the two
// ECDFs with a two-sided merge (one comparison between the heads per step).
// The window-outer walk and the monitor's pooled sums must reproduce its
// results bit for bit.

template <typename Callback>
void oracle_walk(const std::vector<double>& a, const std::vector<double>& b,
                 Callback&& cb) {
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  std::size_t ia = 0, ib = 0;
  while (ia < a.size() || ib < b.size()) {
    double x;
    if (ib >= b.size() || (ia < a.size() && a[ia] <= b[ib])) {
      x = a[ia];
    } else {
      x = b[ib];
    }
    while (ia < a.size() && a[ia] == x) ++ia;
    while (ib < b.size() && b[ib] == x) ++ib;
    const double fa = static_cast<double>(ia) / na;
    const double fb = static_cast<double>(ib) / nb;
    double next = x;
    bool have_next = false;
    if (ia < a.size()) {
      next = a[ia];
      have_next = true;
    }
    if (ib < b.size()) {
      next = have_next ? std::min(next, b[ib]) : b[ib];
      have_next = true;
    }
    const double dx = have_next ? next - x : 0.0;
    cb(fa, fb, x, dx);
  }
}

double oracle_distance_sorted(sml::Measure m, const std::vector<double>& a,
                              const std::vector<double>& b) {
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double n = na + nb;
  double acc = 0.0, acc2 = 0.0;
  switch (m) {
    case sml::Measure::kKolmogorovSmirnov:
      oracle_walk(a, b, [&](double fa, double fb, double, double) {
        acc = std::max(acc, std::abs(fa - fb));
      });
      return acc;
    case sml::Measure::kKuiper:
      oracle_walk(a, b, [&](double fa, double fb, double, double) {
        acc = std::max(acc, fa - fb);
        acc2 = std::max(acc2, fb - fa);
      });
      return acc + acc2;
    case sml::Measure::kAndersonDarling:
      oracle_walk(a, b, [&](double fa, double fb, double, double) {
        const double h = (na * fa + nb * fb) / n;
        const double w = h * (1.0 - h);
        if (w > 1e-12) {
          const double d = fa - fb;
          acc += d * d / w;
        }
      });
      return acc * (na * nb) / (n * n);
    case sml::Measure::kCramerVonMises:
      oracle_walk(a, b, [&](double fa, double fb, double, double) {
        const double d = fa - fb;
        acc += d * d;
      });
      return acc * (na * nb) / (n * n);
    case sml::Measure::kWasserstein:
      oracle_walk(a, b, [&](double fa, double fb, double, double dx) {
        acc += std::abs(fa - fb) * dx;
      });
      return acc;
    case sml::Measure::kDts:
      oracle_walk(a, b, [&](double fa, double fb, double, double dx) {
        const double h = (na * fa + nb * fb) / n;
        const double w = h * (1.0 - h);
        if (w > 1e-12) {
          const double d = fa - fb;
          acc += (d * d / w) * dx;
        }
      });
      return acc;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

/// Per-feature dissimilarity of an arrival-order window, by copy + sort.
std::vector<double> oracle_per_feature(
    sml::Measure m, const std::vector<std::vector<double>>& reference,
    const std::vector<std::deque<double>>& window) {
  std::vector<double> out;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    std::vector<double> ref = reference[i];
    std::sort(ref.begin(), ref.end());
    std::vector<double> runtime(window[i].begin(), window[i].end());
    std::sort(runtime.begin(), runtime.end());
    out.push_back(oracle_distance_sorted(m, ref, runtime));
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// A value that collides often: drawn from a small grid that includes both
/// signed zeros and values shared with the reference, or (sometimes) a
/// continuous draw.
double tie_heavy_value(mx::Rng& rng) {
  static const double kGrid[] = {-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 1.0, 3.0};
  if (rng.uniform() < 0.25) return rng.normal(0.5, 1.5);
  return kGrid[rng.uniform_index(std::size(kGrid))];
}

}  // namespace

TEST(Distances, IdenticalSamplesAreZero) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  for (auto m : sml::all_measures()) {
    EXPECT_NEAR(sml::distance(m, xs, xs), 0.0, 1e-12) << sml::measure_name(m);
  }
}

TEST(Distances, EmptySampleThrows) {
  const std::vector<double> xs{1.0};
  for (auto m : sml::all_measures()) {
    EXPECT_THROW(sml::distance(m, {}, xs), std::invalid_argument);
    EXPECT_THROW(sml::distance(m, xs, {}), std::invalid_argument);
  }
}

TEST(Distances, KsDisjointSamplesIsOne) {
  EXPECT_DOUBLE_EQ(sml::ks_distance({1.0, 2.0}, {10.0, 11.0}), 1.0);
}

TEST(Distances, KsHandComputed) {
  // F_a steps at 1,3; F_b steps at 2,4. Max gap = 0.5.
  EXPECT_DOUBLE_EQ(sml::ks_distance({1.0, 3.0}, {2.0, 4.0}), 0.5);
}

TEST(Distances, KsSymmetric) {
  mx::Rng rng(3);
  const auto a = normal_sample(rng, 50, 0.0, 1.0);
  const auto b = normal_sample(rng, 60, 0.5, 1.2);
  EXPECT_DOUBLE_EQ(sml::ks_distance(a, b), sml::ks_distance(b, a));
}

TEST(Distances, KuiperAtLeastKs) {
  mx::Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const auto a = normal_sample(rng, 40, 0.0, 1.0);
    const auto b = normal_sample(rng, 40, rng.uniform(-1.0, 1.0), 1.0);
    EXPECT_GE(sml::kuiper_distance(a, b) + 1e-12, sml::ks_distance(a, b));
  }
}

TEST(Distances, WassersteinPureShiftEqualsShift) {
  // W1 between X and X + c is exactly |c|.
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  std::vector<double> b;
  for (double x : a) b.push_back(x + 2.5);
  EXPECT_NEAR(sml::wasserstein_distance(a, b), 2.5, 1e-12);
}

TEST(Distances, WassersteinScalesWithUnits) {
  mx::Rng rng(7);
  const auto a = normal_sample(rng, 100, 0.0, 1.0);
  const auto b = normal_sample(rng, 100, 1.0, 1.0);
  std::vector<double> a10, b10;
  for (double x : a) a10.push_back(10.0 * x);
  for (double x : b) b10.push_back(10.0 * x);
  EXPECT_NEAR(sml::wasserstein_distance(a10, b10),
              10.0 * sml::wasserstein_distance(a, b), 1e-9);
}

TEST(Distances, GrowWithShiftMagnitude) {
  // Every measure should increase monotonically (statistically) with the
  // mean shift between distributions.
  mx::Rng rng(11);
  const auto ref = normal_sample(rng, 400, 0.0, 1.0);
  for (auto m : sml::all_measures()) {
    const auto near = normal_sample(rng, 400, 0.2, 1.0);
    const auto far = normal_sample(rng, 400, 2.0, 1.0);
    EXPECT_LT(sml::distance(m, ref, near), sml::distance(m, ref, far))
        << sml::measure_name(m);
  }
}

TEST(Distances, AndersonDarlingSensitiveToTails) {
  // Same mean/median but heavier tails: AD should detect it clearly.
  mx::Rng rng(13);
  const auto ref = normal_sample(rng, 500, 0.0, 1.0);
  const auto heavy = normal_sample(rng, 500, 0.0, 3.0);
  EXPECT_GT(sml::anderson_darling_distance(ref, heavy), 0.05);
}

TEST(Distances, CvmBoundedByKsSquared) {
  // CvM uses squared gaps, so it is <= KS^2 * (na*nb/n^2) * steps bound;
  // sanity: CvM <= KS * steps scale. We just check CvM <= AD since AD
  // upweights the same integrand.
  mx::Rng rng(17);
  const auto a = normal_sample(rng, 100, 0.0, 1.0);
  const auto b = normal_sample(rng, 100, 1.0, 1.0);
  EXPECT_LE(sml::cramer_von_mises_distance(a, b),
            sml::anderson_darling_distance(a, b) + 1e-9);
}

TEST(Distances, MeasureNamesDistinct) {
  std::set<std::string> names;
  for (auto m : sml::all_measures()) names.insert(sml::measure_name(m));
  EXPECT_EQ(names.size(), sml::all_measures().size());
}

TEST(PermutationTest, SameDistributionHighP) {
  mx::Rng rng(19);
  const auto a = normal_sample(rng, 60, 0.0, 1.0);
  const auto b = normal_sample(rng, 60, 0.0, 1.0);
  const double p =
      sml::permutation_p_value(sml::Measure::kKolmogorovSmirnov, a, b, rng, 100);
  EXPECT_GT(p, 0.05);
}

TEST(PermutationTest, ShiftedDistributionLowP) {
  mx::Rng rng(23);
  const auto a = normal_sample(rng, 60, 0.0, 1.0);
  const auto b = normal_sample(rng, 60, 1.5, 1.0);
  const double p =
      sml::permutation_p_value(sml::Measure::kKolmogorovSmirnov, a, b, rng, 100);
  EXPECT_LT(p, 0.05);
}

TEST(PermutationTest, ValidatesArguments) {
  mx::Rng rng(1);
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(
      sml::permutation_p_value(sml::Measure::kKolmogorovSmirnov, xs, xs, rng, 0),
      std::invalid_argument);
}

TEST(Monitor, ConstructionValidation) {
  sml::MonitorConfig cfg;
  EXPECT_THROW(sml::Monitor(cfg, {}), std::invalid_argument);
  EXPECT_THROW(sml::Monitor(cfg, {{}}), std::invalid_argument);
  cfg.window = 1;
  EXPECT_THROW(sml::Monitor(cfg, {{1.0, 2.0}}), std::invalid_argument);
  cfg.window = 8;
  cfg.full_scale = 0.0;
  EXPECT_THROW(sml::Monitor(cfg, {{1.0, 2.0}}), std::invalid_argument);
  cfg.full_scale = 1.0;
  cfg.low_threshold = 0.9;
  cfg.high_threshold = 0.5;
  EXPECT_THROW(sml::Monitor(cfg, {{1.0, 2.0}}), std::invalid_argument);
}

TEST(Monitor, NotReadyUntilWindowFull) {
  mx::Rng rng(29);
  sml::MonitorConfig cfg;
  cfg.window = 8;
  sml::Monitor mon(cfg, {normal_sample(rng, 100, 0.0, 1.0)});
  for (int i = 0; i < 7; ++i) {
    mon.push({rng.normal(0.0, 1.0)});
    EXPECT_FALSE(mon.ready());
    EXPECT_FALSE(mon.assess().has_value());
  }
  mon.push({0.0});
  EXPECT_TRUE(mon.ready());
  EXPECT_TRUE(mon.assess().has_value());
}

TEST(Monitor, InDistributionDataHighConfidence) {
  mx::Rng rng(31);
  sml::MonitorConfig cfg;
  cfg.window = 64;
  sml::Monitor mon(cfg, {normal_sample(rng, 500, 0.0, 1.0)});
  for (int i = 0; i < 64; ++i) mon.push({rng.normal(0.0, 1.0)});
  const auto a = mon.assess();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->level, sml::ConfidenceLevel::kHigh);
  EXPECT_GT(a->confidence, 0.75);
}

TEST(Monitor, ShiftedDataLowConfidence) {
  mx::Rng rng(37);
  sml::MonitorConfig cfg;
  cfg.window = 64;
  sml::Monitor mon(cfg, {normal_sample(rng, 500, 0.0, 1.0)});
  for (int i = 0; i < 64; ++i) mon.push({rng.normal(5.0, 1.0)});
  const auto a = mon.assess();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->level, sml::ConfidenceLevel::kLow);
  EXPECT_LT(a->confidence, 0.4);
}

TEST(Monitor, SlidingWindowRecovers) {
  // After a burst of shifted data, pushing in-distribution data slides the
  // bad samples out and confidence recovers.
  mx::Rng rng(41);
  sml::MonitorConfig cfg;
  cfg.window = 32;
  sml::Monitor mon(cfg, {normal_sample(rng, 500, 0.0, 1.0)});
  for (int i = 0; i < 32; ++i) mon.push({rng.normal(5.0, 1.0)});
  const double bad = mon.assess()->confidence;
  for (int i = 0; i < 32; ++i) mon.push({rng.normal(0.0, 1.0)});
  const double good = mon.assess()->confidence;
  EXPECT_GT(good, bad + 0.3);
}

TEST(Monitor, MultiFeatureAggregation) {
  mx::Rng rng(43);
  sml::MonitorConfig cfg;
  cfg.window = 32;
  sml::Monitor mon(cfg, {normal_sample(rng, 300, 0.0, 1.0),
                         normal_sample(rng, 300, 10.0, 2.0)});
  EXPECT_EQ(mon.num_features(), 2u);
  for (int i = 0; i < 32; ++i) {
    mon.push({rng.normal(0.0, 1.0), rng.normal(10.0, 2.0)});
  }
  EXPECT_EQ(mon.assess()->level, sml::ConfidenceLevel::kHigh);
  EXPECT_THROW(mon.push({1.0}), std::invalid_argument);
}

TEST(Monitor, ResetClearsWindow) {
  mx::Rng rng(47);
  sml::MonitorConfig cfg;
  cfg.window = 8;
  sml::Monitor mon(cfg, {normal_sample(rng, 100, 0.0, 1.0)});
  for (int i = 0; i < 8; ++i) mon.push({0.0});
  EXPECT_TRUE(mon.ready());
  mon.reset();
  EXPECT_FALSE(mon.ready());
  EXPECT_EQ(mon.buffered(), 0u);
}

TEST(Monitor, ConfidenceLevelNames) {
  EXPECT_EQ(sml::confidence_level_name(sml::ConfidenceLevel::kHigh), "High");
  EXPECT_EQ(sml::confidence_level_name(sml::ConfidenceLevel::kMedium), "Medium");
  EXPECT_EQ(sml::confidence_level_name(sml::ConfidenceLevel::kLow), "Low");
}

#include "sesame/safeml/calibration.hpp"

namespace {

/// The bootstrap sampler: each feature's window resampled with replacement
/// from that feature's reference.
sml::WindowSampler bootstrap(const std::vector<std::vector<double>>& reference,
                             std::size_t window, mx::Rng& rng) {
  return [&reference, window, &rng](std::vector<std::vector<double>>& win) {
    for (std::size_t k = 0; k < reference.size(); ++k) {
      for (std::size_t i = 0; i < window; ++i) {
        win[k].push_back(reference[k][rng.uniform_index(reference[k].size())]);
      }
    }
  };
}

sml::MonitorConfig config_of(sml::Measure measure, std::size_t window,
                             double high = 0.75, double low = 0.40) {
  sml::MonitorConfig cfg;
  cfg.measure = measure;
  cfg.window = window;
  cfg.high_threshold = high;
  cfg.low_threshold = low;
  return cfg;
}

}  // namespace

TEST(Calibration, ValidatesArguments) {
  mx::Rng rng(1);
  const auto ks = sml::Measure::kKolmogorovSmirnov;
  std::vector<std::vector<double>> ref{{1.0, 2.0, 3.0, 4.0}};
  const std::vector<std::vector<double>> none;
  EXPECT_THROW(sml::calibrate_monitor(config_of(ks, 4), none, 200,
                                      bootstrap(none, 4, rng)),
               std::invalid_argument);
  EXPECT_THROW(sml::calibrate_monitor(config_of(ks, 8), ref, 200,
                                      bootstrap(ref, 8, rng)),
               std::invalid_argument);  // reference smaller than window
  EXPECT_THROW(sml::calibrate_monitor(config_of(ks, 1), ref, 200,
                                      bootstrap(ref, 1, rng)),
               std::invalid_argument);  // window < 2
  EXPECT_THROW(sml::calibrate_monitor(config_of(ks, 4), ref, 5,
                                      bootstrap(ref, 4, rng)),
               std::invalid_argument);  // too few trials
  EXPECT_THROW(sml::calibrate_monitor(config_of(ks, 4, 0.4, 0.7), ref, 100,
                                      bootstrap(ref, 4, rng)),
               std::invalid_argument);  // thresholds inverted
  EXPECT_THROW(sml::calibrate_monitor(config_of(ks, 4), ref, 100,
                                      bootstrap(ref, 3, rng)),
               std::invalid_argument);  // sampler fills a short window
}

TEST(Calibration, CleanDataClassifiesHigh) {
  mx::Rng rng(97);
  const auto reference = std::vector<std::vector<double>>{
      normal_sample(rng, 500, 0.0, 1.0), normal_sample(rng, 500, 10.0, 2.0)};
  const auto report = sml::calibrate_monitor(
      config_of(sml::Measure::kKolmogorovSmirnov, 64), reference, 200,
      bootstrap(reference, 64, rng));
  EXPECT_GT(report.config.full_scale, 0.0);
  EXPECT_GE(report.self_distance_p95, report.self_distance_p50);

  sml::Monitor mon(report.config, reference);
  int high = 0;
  const int rounds = 50;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < 64; ++i) {
      mon.push({rng.normal(0.0, 1.0), rng.normal(10.0, 2.0)});
    }
    if (mon.assess()->level == sml::ConfidenceLevel::kHigh) ++high;
  }
  // Calibration targets ~95% High on clean data.
  EXPECT_GT(high, rounds * 3 / 4);
}

TEST(Calibration, ShiftedDataStillFlagged) {
  mx::Rng rng(101);
  const auto reference =
      std::vector<std::vector<double>>{normal_sample(rng, 500, 0.0, 1.0)};
  const auto report = sml::calibrate_monitor(
      config_of(sml::Measure::kWasserstein, 64), reference, 200,
      bootstrap(reference, 64, rng));
  sml::Monitor mon(report.config, reference);
  for (int i = 0; i < 64; ++i) mon.push({rng.normal(4.0, 1.0)});
  EXPECT_EQ(mon.assess()->level, sml::ConfidenceLevel::kLow);
}

TEST(Calibration, WorksForEveryMeasure) {
  mx::Rng rng(103);
  const auto reference =
      std::vector<std::vector<double>>{normal_sample(rng, 300, 0.0, 1.0)};
  for (auto m : sml::all_measures()) {
    const auto report = sml::calibrate_monitor(
        config_of(m, 32), reference, 100, bootstrap(reference, 32, rng));
    EXPECT_GT(report.config.full_scale, 0.0) << sml::measure_name(m);
    EXPECT_EQ(report.config.measure, m);
    EXPECT_EQ(report.config.window, 32u);
  }
}

TEST(Calibration, ScaleIsTheP95SelfDistanceOfTheSampledWindows) {
  // The scale comes from distance() over exactly the windows the sampler
  // draws, averaged over features; a fixed sampler pins it by hand.
  mx::Rng rng(107);
  const auto reference = std::vector<std::vector<double>>{
      normal_sample(rng, 200, 0.0, 1.0), normal_sample(rng, 200, 5.0, 1.0)};
  mx::Rng draws(109);
  std::vector<double> self;
  const auto cfg = config_of(sml::Measure::kWasserstein, 16, 0.60, 0.30);
  const auto report = sml::calibrate_monitor(
      cfg, reference, 40, [&](std::vector<std::vector<double>>& win) {
        for (auto& w : win) {
          for (int i = 0; i < 16; ++i) w.push_back(draws.normal(0.5, 1.0));
        }
        self.push_back((sml::distance(cfg.measure, reference[0], win[0]) +
                        sml::distance(cfg.measure, reference[1], win[1])) /
                       2.0);
      });
  ASSERT_EQ(self.size(), 40u);
  EXPECT_EQ(report.self_distance_p95, mx::quantile(self, 0.95));
  EXPECT_EQ(report.config.full_scale,
            std::max(1e-9, mx::quantile(self, 0.95) / (1.0 - 0.60)));
  EXPECT_EQ(report.config.low_threshold, 0.30);
}

TEST(Monitor, PerFeatureDissimilarityIsolatesDriftedChannel) {
  mx::Rng rng(107);
  sml::MonitorConfig cfg;
  cfg.window = 48;
  sml::Monitor mon(cfg, {normal_sample(rng, 300, 0.0, 1.0),
                         normal_sample(rng, 300, 10.0, 2.0)});
  EXPECT_TRUE(mon.per_feature_dissimilarity().empty());  // not ready yet
  // Feature 0 stays in distribution; feature 1 drifts hard.
  for (int i = 0; i < 48; ++i) {
    mon.push({rng.normal(0.0, 1.0), rng.normal(30.0, 2.0)});
  }
  const auto per = mon.per_feature_dissimilarity();
  ASSERT_EQ(per.size(), 2u);
  EXPECT_LT(per[0], 0.4);
  EXPECT_GT(per[1], 0.9);
  // The aggregate equals the mean of the per-feature distances.
  const auto a = mon.assess();
  ASSERT_TRUE(a.has_value());
  EXPECT_NEAR(a->dissimilarity, (per[0] + per[1]) / 2.0, 1e-12);
}

TEST(Distances, SortedVariantMatchesUnsortedForAllMeasures) {
  mx::Rng rng(1234);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) a.push_back(rng.normal(0.0, 1.0));
  for (int i = 0; i < 150; ++i) b.push_back(rng.normal(0.4, 1.3));

  std::vector<double> a_sorted = a, b_sorted = b;
  std::sort(a_sorted.begin(), a_sorted.end());
  std::sort(b_sorted.begin(), b_sorted.end());

  for (const auto m : sml::all_measures()) {
    EXPECT_EQ(sml::distance(m, a, b),
              sml::distance_sorted(m, a_sorted, b_sorted))
        << sml::measure_name(m);
  }
}

TEST(Distances, SortedVariantRejectsEmptySamples) {
  const std::vector<double> some{1.0, 2.0};
  EXPECT_THROW(
      sml::distance_sorted(sml::Measure::kKolmogorovSmirnov, {}, some),
      std::invalid_argument);
  EXPECT_THROW(
      sml::distance_sorted(sml::Measure::kKolmogorovSmirnov, some, {}),
      std::invalid_argument);
}

TEST(Distances, WindowOuterWalkMatchesTwoSidedMergeBitForBit) {
  // Generated sample pairs with repeated values, cross-sample ties, signed
  // zeros, and either sample extending past the other at both ends.
  mx::Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<double> a(1 + rng.uniform_index(200));
    std::vector<double> b(1 + rng.uniform_index(130));
    for (auto& v : a) v = tie_heavy_value(rng);
    for (auto& v : b) v = tie_heavy_value(rng) * (trial % 3 == 0 ? 2.0 : 1.0);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    for (const auto m : sml::all_measures()) {
      const std::vector<double> got{sml::distance_sorted(m, a, b),
                                    sml::distance_sorted(m, b, a)};
      const std::vector<double> want{oracle_distance_sorted(m, a, b),
                                     oracle_distance_sorted(m, b, a)};
      ASSERT_TRUE(same_bits(got, want))
          << sml::measure_name(m) << " trial " << trial;
    }
  }
}

TEST(Monitor, IncrementalWindowMatchesCopySortOracleBitForBit) {
  // Seeded streams with repeated values, window/reference ties and signed
  // zeros, for windows of 2..128: after every push, the maintained sorted
  // window must give exactly the copy+sort verdict.
  for (const std::size_t window : {2u, 3u, 7u, 16u, 64u, 128u}) {
    for (const auto m : sml::all_measures()) {
      mx::Rng rng(1000 + window);
      std::vector<std::vector<double>> reference(2);
      for (int i = 0; i < 150; ++i) {
        reference[0].push_back(tie_heavy_value(rng));
        reference[1].push_back(rng.normal(0.0, 1.0));
      }
      sml::MonitorConfig cfg;
      cfg.measure = m;
      cfg.window = window;
      cfg.full_scale = 3.0;
      sml::Monitor mon(cfg, reference);
      std::vector<std::deque<double>> fifo(2);
      for (std::size_t step = 0; step < 3 * window + 5; ++step) {
        // Feature 1 sometimes repeats a reference value exactly.
        const double f1 = rng.uniform() < 0.3
                              ? reference[1][rng.uniform_index(150)]
                              : rng.normal(0.2, 1.1);
        const std::vector<double> obs{tie_heavy_value(rng), f1};
        mon.push(obs);
        for (std::size_t k = 0; k < 2; ++k) {
          fifo[k].push_back(obs[k]);
          if (fifo[k].size() > window) fifo[k].pop_front();
        }
        if (!mon.ready()) continue;
        ASSERT_TRUE(same_bits(mon.per_feature_dissimilarity(),
                              oracle_per_feature(m, reference, fifo)))
            << sml::measure_name(m) << " window " << window << " step " << step;
        const auto per_feature = oracle_per_feature(m, reference, fifo);
        const double mean = (per_feature[0] + per_feature[1]) / 2.0;
        ASSERT_TRUE(same_bits({mon.assess()->dissimilarity}, {mean}));
      }
    }
  }
}

TEST(Monitor, TieBreakingInTheSortedWindowIsPinned) {
  // The determinism hazard of a maintained sorted window: equal values
  // (including -0.0 == 0.0) may sit in either order, and an eviction
  // removes *an* equal element, not necessarily the one that arrived
  // first. Neither may change a verdict. Two monitors that end up with the
  // same window multiset through different arrival orders and evictions
  // must agree bit for bit, and with the oracle.
  const std::vector<std::vector<double>> reference{{-0.0, 0.0, 1.0, 1.0, 2.0}};
  for (const auto m : sml::all_measures()) {
    sml::MonitorConfig cfg;
    cfg.measure = m;
    cfg.window = 4;
    sml::Monitor a(cfg, reference), b(cfg, reference);
    // a: [0.0, 1.0, 1.0, -0.0] directly.
    for (const double v : {0.0, 1.0, 1.0, -0.0}) a.push({v});
    // b: evicts a 1.0 and a -0.0 while equal values stay in the window.
    for (const double v : {1.0, -0.0, 1.0, 0.0, 1.0, -0.0}) b.push({v});
    std::vector<std::deque<double>> fifo_b{{1.0, 0.0, 1.0, -0.0}};
    ASSERT_TRUE(same_bits(a.per_feature_dissimilarity(),
                          b.per_feature_dissimilarity()))
        << sml::measure_name(m);
    ASSERT_TRUE(same_bits(b.per_feature_dissimilarity(),
                          oracle_per_feature(m, reference, fifo_b)))
        << sml::measure_name(m);
  }
}

TEST(Monitor, RejectsNonFiniteFeaturesAndKeepsTheWindow) {
  mx::Rng rng(53);
  sml::MonitorConfig cfg;
  cfg.measure = sml::Measure::kWasserstein;  // moves with any window value
  cfg.window = 8;
  sml::Monitor mon(cfg, {normal_sample(rng, 100, 0.0, 1.0),
                         normal_sample(rng, 100, 5.0, 1.0)});
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  // Before the window fills.
  mon.push({0.1, 5.1});
  for (const double v : bad) {
    EXPECT_THROW(mon.push({v, 5.0}), std::invalid_argument);
    EXPECT_THROW(mon.push({0.0, v}), std::invalid_argument);
  }
  EXPECT_EQ(mon.buffered(), 1u);
  // Once full: a rejected push neither evicts nor inserts anything, in any
  // feature (the first feature of {0.0, NaN} is not half-pushed).
  for (int i = 0; i < 8; ++i) mon.push({rng.normal(0.0, 1.0), rng.normal(5.0, 1.0)});
  const auto before = mon.per_feature_dissimilarity();
  for (const double v : bad) {
    EXPECT_THROW(mon.push({v, 5.0}), std::invalid_argument);
    EXPECT_THROW(mon.push({0.0, v}), std::invalid_argument);
  }
  EXPECT_EQ(mon.buffered(), 8u);
  EXPECT_TRUE(same_bits(before, mon.per_feature_dissimilarity()));
  // And the window keeps sliding afterwards.
  mon.push({50.0, -50.0});
  EXPECT_FALSE(same_bits(before, mon.per_feature_dissimilarity()));
}

TEST(Monitor, ResetThenRefillMatchesAFreshMonitor) {
  mx::Rng rng(59);
  sml::MonitorConfig cfg;
  cfg.window = 8;
  const auto reference = normal_sample(rng, 100, 0.0, 1.0);
  sml::Monitor used(cfg, {reference}), fresh(cfg, {reference});
  for (int i = 0; i < 13; ++i) used.push({rng.normal(3.0, 1.0)});
  used.reset();
  for (int i = 0; i < 11; ++i) {
    const double v = rng.normal(0.0, 1.0);
    used.push({v});
    fresh.push({v});
  }
  EXPECT_TRUE(same_bits(used.per_feature_dissimilarity(),
                        fresh.per_feature_dissimilarity()));
}

TEST(Monitor, PooledSumsMatchDistanceSortedAfterEveryPush) {
  // The monitor's running pooled sums against the from-scratch oracle,
  // distance_sorted over the sorted reference and the sorted window, bit
  // for bit after every push: windows 2..128, references of 1..500 values,
  // quantised values with cross-sample ties and signed zeros, the fill
  // phase, reset(), and a copy taken mid-stream that must then evolve
  // exactly like the original.
  static const double kQuantised[] = {-1.0, -0.0, 0.0, 0.25, 0.5, 1.0};
  for (const std::size_t window : {2u, 3u, 16u, 64u, 128u}) {
    for (const std::size_t ref_size : {1u, 5u, 64u, 500u}) {
      for (const auto m : sml::all_measures()) {
        mx::Rng rng(7000 + 31 * window + ref_size);
        std::vector<std::vector<double>> reference(3);
        for (std::size_t i = 0; i < ref_size; ++i) {
          reference[0].push_back(kQuantised[rng.uniform_index(6)]);
          reference[1].push_back(rng.normal(0.0, 1.0));
          reference[2].push_back(tie_heavy_value(rng));
        }
        std::vector<std::vector<double>> ref_sorted = reference;
        for (auto& r : ref_sorted) std::sort(r.begin(), r.end());
        sml::MonitorConfig cfg;
        cfg.measure = m;
        cfg.window = window;
        cfg.full_scale = 2.0;
        sml::Monitor mon(cfg, reference);
        std::optional<sml::Monitor> copy;
        std::vector<std::deque<double>> fifo(3);
        const std::size_t steps = 3 * window + 9;
        for (std::size_t step = 0; step < steps; ++step) {
          if (step == window + 3) {
            mon.reset();
            for (auto& f : fifo) f.clear();
          }
          if (step == window + 3 + window / 2) copy.emplace(mon);  // mid-fill
          const double f1 = rng.uniform() < 0.3
                                ? reference[1][rng.uniform_index(ref_size)]
                                : rng.normal(0.3, 1.2);
          const std::vector<double> obs{kQuantised[rng.uniform_index(6)], f1,
                                        tie_heavy_value(rng)};
          mon.push(obs);
          if (copy) copy->push(obs);
          for (std::size_t k = 0; k < 3; ++k) {
            fifo[k].push_back(obs[k]);
            if (fifo[k].size() > window) fifo[k].pop_front();
          }
          const std::string where = sml::measure_name(m) + " window " +
                                    std::to_string(window) + " reference " +
                                    std::to_string(ref_size) + " step " +
                                    std::to_string(step);
          if (fifo[0].size() < window) {
            ASSERT_FALSE(mon.ready()) << where;
            ASSERT_TRUE(mon.per_feature_dissimilarity().empty()) << where;
            ASSERT_FALSE(mon.assess().has_value()) << where;
            continue;
          }
          std::vector<double> want;
          double total = 0.0;
          for (std::size_t k = 0; k < 3; ++k) {
            std::vector<double> w(fifo[k].begin(), fifo[k].end());
            std::sort(w.begin(), w.end());
            want.push_back(sml::distance_sorted(m, ref_sorted[k], w));
            total += want.back();
          }
          ASSERT_TRUE(same_bits(mon.per_feature_dissimilarity(), want)) << where;
          // distance_sorted shares its fold with the monitor; the verbatim
          // two-sided-merge oracle shares nothing with either.
          ASSERT_TRUE(same_bits(mon.per_feature_dissimilarity(),
                                oracle_per_feature(m, reference, fifo)))
              << where << " (two-sided-merge oracle)";
          ASSERT_TRUE(same_bits({mon.assess()->dissimilarity}, {total / 3.0}))
              << where;
          if (copy) {
            ASSERT_TRUE(same_bits(copy->per_feature_dissimilarity(), want))
                << where << " (copy)";
          }
        }
      }
    }
  }
}
