// The ECDF-based measures as folds over the steps of the joint ECDF.
//
// Both evaluation paths share these definitions: the from-scratch walk of
// distance_sorted() (distances.cpp) and the monitor's running pooled sums
// (monitor.cpp). Each step (fa, fb, dx) is folded into at most two running
// statistics, always with the same expression, so the two paths produce
// the same bits whenever they fold the same steps in the same order.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "sesame/safeml/distances.hpp"

namespace sesame::safeml::detail {

/// Sample sizes of the reference (a) and the runtime sample (b).
struct Sizes {
  double na;
  double nb;
  double n;  ///< na + nb
};

/// Folds one step of the joint ECDF into the statistics (s1, s2) of `M`.
/// `dx` is the distance to the next distinct pooled value (0 at the end).
template <Measure M>
void fold_step(double fa, double fb, double dx, const Sizes& sz, double& s1,
               double& s2) {
  if constexpr (M == Measure::kKolmogorovSmirnov) {
    s1 = std::max(s1, std::abs(fa - fb));
  } else if constexpr (M == Measure::kKuiper) {
    s1 = std::max(s1, fa - fb);
    s2 = std::max(s2, fb - fa);
  } else if constexpr (M == Measure::kCramerVonMises) {
    const double d = fa - fb;
    s1 += d * d;
  } else if constexpr (M == Measure::kWasserstein) {
    s1 += std::abs(fa - fb) * dx;
  } else {
    // Anderson-Darling and DTS integrate (Fa-Fb)^2 / (H(1-H)) over the
    // pooled ECDF H; DTS weights each step by its transport distance.
    const double h = (sz.na * fa + sz.nb * fb) / sz.n;
    const double w = h * (1.0 - h);
    if (w > 1e-12) {
      const double d = fa - fb;
      if constexpr (M == Measure::kAndersonDarling) {
        s1 += d * d / w;
      } else {
        s1 += (d * d / w) * dx;
      }
    }
  }
}

/// The measure's value from its folded statistics.
template <Measure M>
double finish(double s1, double s2, const Sizes& sz) {
  if constexpr (M == Measure::kKuiper) {
    return s1 + s2;
  } else if constexpr (M == Measure::kAndersonDarling ||
                       M == Measure::kCramerVonMises) {
    // Normalized by the number of joint steps so the statistic is
    // comparable across window sizes.
    return s1 * (sz.na * sz.nb) / (sz.n * sz.n);
  } else {
    return s1;
  }
}

/// Calls f(std::integral_constant<Measure, m>{}) for the runtime measure.
template <typename F>
decltype(auto) dispatch(Measure m, F&& f) {
  using M = Measure;
  switch (m) {
    case M::kKolmogorovSmirnov:
      return f(std::integral_constant<M, M::kKolmogorovSmirnov>{});
    case M::kKuiper: return f(std::integral_constant<M, M::kKuiper>{});
    case M::kAndersonDarling:
      return f(std::integral_constant<M, M::kAndersonDarling>{});
    case M::kCramerVonMises:
      return f(std::integral_constant<M, M::kCramerVonMises>{});
    case M::kWasserstein:
      return f(std::integral_constant<M, M::kWasserstein>{});
    case M::kDts: return f(std::integral_constant<M, M::kDts>{});
  }
  throw std::invalid_argument("safeml: unknown measure");
}

}  // namespace sesame::safeml::detail
