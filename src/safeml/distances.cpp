#include "sesame/safeml/distances.hpp"

#include <algorithm>
#include <stdexcept>

#include "measure_terms.hpp"

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

/// Measure `M` over two ascending samples: one fold over the walk.
template <Measure M>
double measure_sorted(const std::vector<double>& a, const std::vector<double>& b) {
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const detail::Sizes sz{na, nb, na + nb};
  double s1 = 0.0, s2 = 0.0;
  walk_sorted_ecdfs(a, b, [&](double fa, double fb, double, double dx) {
    detail::fold_step<M>(fa, fb, dx, sz, s1, s2);
  });
  return detail::finish<M>(s1, s2, sz);
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
  return distance(Measure::kKolmogorovSmirnov, a, b);
}

double kuiper_distance(const std::vector<double>& a, const std::vector<double>& b) {
  return distance(Measure::kKuiper, a, b);
}

double anderson_darling_distance(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  return distance(Measure::kAndersonDarling, a, b);
}

double cramer_von_mises_distance(const std::vector<double>& a,
                                 const std::vector<double>& b) {
  return distance(Measure::kCramerVonMises, a, b);
}

double wasserstein_distance(const std::vector<double>& a,
                            const std::vector<double>& b) {
  return distance(Measure::kWasserstein, a, b);
}

double dts_distance(const std::vector<double>& a, const std::vector<double>& b) {
  return distance(Measure::kDts, a, b);
}

double distance(Measure m, const std::vector<double>& a,
                const std::vector<double>& b) {
  require_samples(a, b, "distance");
  return distance_sorted(m, sorted_copy(a), sorted_copy(b));
}

double distance_sorted(Measure m, const std::vector<double>& a_sorted,
                       const std::vector<double>& b_sorted) {
  require_samples(a_sorted, b_sorted, "distance_sorted");
  return detail::dispatch(m, [&](auto measure) {
    return measure_sorted<decltype(measure)::value>(a_sorted, b_sorted);
  });
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
