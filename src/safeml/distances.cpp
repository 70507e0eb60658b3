#include "sesame/safeml/distances.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sesame::safeml {

namespace {

void require_samples(const std::vector<double>& a, const std::vector<double>& b,
                     const char* who) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty sample");
  }
}

/// Walks the merged samples (both already ascending-sorted), invoking
/// cb(fa, fb, x, dx_to_next) once per distinct value x of the pooled
/// sample, in ascending order. `dx_to_next` is 0 at the final point.
///
/// Runtime monitors pass a large reference `a` and a short window `b`, so
/// the merge is window-outer: for each window value y, a tight loop emits
/// the reference steps below y (fb fixed), one step consumes every value
/// equal to y in both samples, and a tail loop finishes the reference.
/// Where a and b tie, x is taken from a, and `next` is the smaller head
/// (a's on a tie), so the (fa, fb, x, dx) sequence is exactly that of a
/// two-sided merge.
template <typename Callback>
void walk_sorted_ecdfs(const std::vector<double>& a, const std::vector<double>& b,
                       Callback&& cb) {
  const std::size_t sa = a.size(), sb = b.size();
  const double na = static_cast<double>(sa);
  const double nb = static_cast<double>(sb);
  std::size_t ia = 0, ib = 0;
  while (ib < sb) {
    const double y = b[ib];
    const double fb_below = static_cast<double>(ib) / nb;
    while (ia < sa && a[ia] < y) {
      const double x = a[ia];
      while (++ia < sa && a[ia] == x) {
      }
      const double next = ia < sa && a[ia] <= y ? a[ia] : y;
      cb(static_cast<double>(ia) / na, fb_below, x, next - x);
    }
    const double x = ia < sa && a[ia] == y ? a[ia] : y;
    while (ia < sa && a[ia] == y) ++ia;
    while (++ib < sb && b[ib] == y) {
    }
    double dx = 0.0;
    if (ia < sa && (ib >= sb || a[ia] <= b[ib])) {
      dx = a[ia] - x;
    } else if (ib < sb) {
      dx = b[ib] - x;
    }
    cb(static_cast<double>(ia) / na, static_cast<double>(ib) / nb, x, dx);
  }
  const double fb_end = static_cast<double>(ib) / nb;
  while (ia < sa) {
    const double x = a[ia];
    while (++ia < sa && a[ia] == x) {
    }
    cb(static_cast<double>(ia) / na, fb_end, x, ia < sa ? a[ia] - x : 0.0);
  }
}

std::vector<double> sorted_copy(const std::vector<double>& v) {
  std::vector<double> out = v;
  std::sort(out.begin(), out.end());
  return out;
}

double ks_sorted(const std::vector<double>& a, const std::vector<double>& b) {
  double best = 0.0;
  walk_sorted_ecdfs(a, b, [&](double fa, double fb, double, double) {
    best = std::max(best, std::abs(fa - fb));
  });
  return best;
}

double kuiper_sorted(const std::vector<double>& a, const std::vector<double>& b) {
  double dplus = 0.0, dminus = 0.0;
  walk_sorted_ecdfs(a, b, [&](double fa, double fb, double, double) {
    dplus = std::max(dplus, fa - fb);
    dminus = std::max(dminus, fb - fa);
  });
  return dplus + dminus;
}

double anderson_darling_sorted(const std::vector<double>& a,
                               const std::vector<double>& b) {
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double n = na + nb;
  double acc = 0.0;
  // Integrate (Fa-Fb)^2 / (H(1-H)) dH-steps over the pooled ECDF H.
  walk_sorted_ecdfs(a, b, [&](double fa, double fb, double, double) {
    const double h = (na * fa + nb * fb) / n;
    const double w = h * (1.0 - h);
    if (w > 1e-12) {
      const double d = fa - fb;
      acc += d * d / w;
    }
  });
  // Normalize by the number of joint steps so the statistic is comparable
  // across window sizes (runtime monitors use fixed windows anyway).
  return acc * (na * nb) / (n * n);
}

double cramer_von_mises_sorted(const std::vector<double>& a,
                               const std::vector<double>& b) {
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double n = na + nb;
  double acc = 0.0;
  walk_sorted_ecdfs(a, b, [&](double fa, double fb, double, double) {
    const double d = fa - fb;
    acc += d * d;
  });
  return acc * (na * nb) / (n * n);
}

double wasserstein_sorted(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double acc = 0.0;
  walk_sorted_ecdfs(a, b, [&](double fa, double fb, double, double dx) {
    acc += std::abs(fa - fb) * dx;
  });
  return acc;
}

double dts_sorted(const std::vector<double>& a, const std::vector<double>& b) {
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double n = na + nb;
  double acc = 0.0;
  walk_sorted_ecdfs(a, b, [&](double fa, double fb, double, double dx) {
    const double h = (na * fa + nb * fb) / n;
    const double w = h * (1.0 - h);
    if (w > 1e-12) {
      const double d = fa - fb;
      acc += (d * d / w) * dx;
    }
  });
  return acc;
}

}  // namespace

std::string measure_name(Measure m) {
  switch (m) {
    case Measure::kKolmogorovSmirnov: return "KS";
    case Measure::kKuiper: return "Kuiper";
    case Measure::kAndersonDarling: return "AndersonDarling";
    case Measure::kCramerVonMises: return "CramerVonMises";
    case Measure::kWasserstein: return "Wasserstein";
    case Measure::kDts: return "DTS";
  }
  return "unknown";
}

const std::vector<Measure>& all_measures() {
  static const std::vector<Measure> ms{
      Measure::kKolmogorovSmirnov, Measure::kKuiper,
      Measure::kAndersonDarling,   Measure::kCramerVonMises,
      Measure::kWasserstein,       Measure::kDts};
  return ms;
}

double ks_distance(const std::vector<double>& a, const std::vector<double>& b) {
  require_samples(a, b, "ks_distance");
  return ks_sorted(sorted_copy(a), sorted_copy(b));
}

double kuiper_distance(const std::vector<double>& a, const std::vector<double>& b) {
  require_samples(a, b, "kuiper_distance");
  return kuiper_sorted(sorted_copy(a), sorted_copy(b));
}

double anderson_darling_distance(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  require_samples(a, b, "anderson_darling_distance");
  return anderson_darling_sorted(sorted_copy(a), sorted_copy(b));
}

double cramer_von_mises_distance(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  require_samples(a, b, "cramer_von_mises_distance");
  return cramer_von_mises_sorted(sorted_copy(a), sorted_copy(b));
}

double wasserstein_distance(const std::vector<double>& a,
                            const std::vector<double>& b) {
  require_samples(a, b, "wasserstein_distance");
  return wasserstein_sorted(sorted_copy(a), sorted_copy(b));
}

double dts_distance(const std::vector<double>& a, const std::vector<double>& b) {
  require_samples(a, b, "dts_distance");
  return dts_sorted(sorted_copy(a), sorted_copy(b));
}

double distance(Measure m, const std::vector<double>& a,
                const std::vector<double>& b) {
  switch (m) {
    case Measure::kKolmogorovSmirnov: return ks_distance(a, b);
    case Measure::kKuiper: return kuiper_distance(a, b);
    case Measure::kAndersonDarling: return anderson_darling_distance(a, b);
    case Measure::kCramerVonMises: return cramer_von_mises_distance(a, b);
    case Measure::kWasserstein: return wasserstein_distance(a, b);
    case Measure::kDts: return dts_distance(a, b);
  }
  throw std::invalid_argument("distance: unknown measure");
}

double distance_sorted(Measure m, const std::vector<double>& a_sorted,
                       const std::vector<double>& b_sorted) {
  require_samples(a_sorted, b_sorted, "distance_sorted");
  switch (m) {
    case Measure::kKolmogorovSmirnov: return ks_sorted(a_sorted, b_sorted);
    case Measure::kKuiper: return kuiper_sorted(a_sorted, b_sorted);
    case Measure::kAndersonDarling:
      return anderson_darling_sorted(a_sorted, b_sorted);
    case Measure::kCramerVonMises:
      return cramer_von_mises_sorted(a_sorted, b_sorted);
    case Measure::kWasserstein: return wasserstein_sorted(a_sorted, b_sorted);
    case Measure::kDts: return dts_sorted(a_sorted, b_sorted);
  }
  throw std::invalid_argument("distance_sorted: unknown measure");
}

double permutation_p_value(Measure m, const std::vector<double>& a,
                           const std::vector<double>& b, mathx::Rng& rng,
                           int iterations) {
  require_samples(a, b, "permutation_p_value");
  if (iterations <= 0) {
    throw std::invalid_argument("permutation_p_value: iterations <= 0");
  }
  const double observed = distance(m, a, b);
  std::vector<double> pooled;
  pooled.reserve(a.size() + b.size());
  pooled.insert(pooled.end(), a.begin(), a.end());
  pooled.insert(pooled.end(), b.begin(), b.end());
  int exceed = 0;
  std::vector<double> pa(a.size()), pb(b.size());
  for (int it = 0; it < iterations; ++it) {
    rng.shuffle(pooled);
    std::copy(pooled.begin(), pooled.begin() + static_cast<long>(a.size()),
              pa.begin());
    std::copy(pooled.begin() + static_cast<long>(a.size()), pooled.end(),
              pb.begin());
    if (distance(m, pa, pb) >= observed) ++exceed;
  }
  // Add-one smoothing keeps the p-value away from exactly 0.
  return (exceed + 1.0) / (iterations + 1.0);
}

}  // namespace sesame::safeml
