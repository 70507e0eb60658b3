// Monte Carlo simulation of CTMCs: a test oracle for the analytic solver.
//
// Trajectory sampling cross-checks Ctmc::transient (uniformization and the
// expm fallback) and the mean time to absorption from first-passage
// samples. It is independent of the solver's linear algebra, which is what
// makes it a useful reference; no product target links it.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "sesame/markov/ctmc.hpp"
#include "sesame/mathx/rng.hpp"

namespace sesame::markov {

/// One sampled trajectory: the visited states and the time entering each.
struct Trajectory {
  std::vector<std::size_t> states;
  std::vector<double> entry_times;
  /// Total simulated time (== horizon, or the absorption time if earlier).
  double end_time = 0.0;
  bool absorbed = false;
};

/// Samples one trajectory from `start` until `horizon` or absorption.
Trajectory sample_trajectory(const Ctmc& chain, std::size_t start,
                             double horizon, mathx::Rng& rng);

/// Estimates the state distribution at time t from `n` sampled
/// trajectories — a consistency check against Ctmc::transient.
std::vector<double> estimate_transient(const Ctmc& chain, std::size_t start,
                                       double t, std::size_t n,
                                       mathx::Rng& rng);

/// Samples the first time any state in `targets` is entered, or nullopt
/// when the trajectory reaches `horizon` first.
std::optional<double> sample_first_passage(const Ctmc& chain, std::size_t start,
                                           const std::vector<std::size_t>& targets,
                                           double horizon, mathx::Rng& rng);

/// Empirical first-passage statistics over `n` samples.
struct FirstPassageStats {
  double hit_fraction = 0.0;    ///< trajectories reaching a target in time
  double mean_time = 0.0;       ///< mean hitting time among hits (0 if none)
  std::vector<double> samples;  ///< the hitting times themselves
};

FirstPassageStats estimate_first_passage(const Ctmc& chain, std::size_t start,
                                         const std::vector<std::size_t>& targets,
                                         double horizon, std::size_t n,
                                         mathx::Rng& rng);

}  // namespace sesame::markov
