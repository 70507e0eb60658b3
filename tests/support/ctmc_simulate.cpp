#include "sesame/testing/ctmc_simulate.hpp"

#include <algorithm>
#include <stdexcept>

namespace sesame::markov {

Trajectory sample_trajectory(const Ctmc& chain, std::size_t start,
                             double horizon, mathx::Rng& rng) {
  if (start >= chain.num_states()) {
    throw std::out_of_range("sample_trajectory: start state");
  }
  if (horizon < 0.0) {
    throw std::invalid_argument("sample_trajectory: negative horizon");
  }
  const auto& q = chain.generator();
  Trajectory traj;
  std::size_t state = start;
  double t = 0.0;
  traj.states.push_back(state);
  traj.entry_times.push_back(0.0);

  while (t < horizon) {
    const double exit_rate = -q(state, state);
    if (exit_rate <= 0.0) {
      traj.absorbed = true;
      break;
    }
    const double dwell = rng.exponential(exit_rate);
    if (t + dwell >= horizon) break;
    t += dwell;
    // Choose the successor proportionally to its rate.
    std::vector<double> weights(chain.num_states(), 0.0);
    for (std::size_t j = 0; j < chain.num_states(); ++j) {
      if (j != state) weights[j] = q(state, j);
    }
    state = rng.categorical(weights);
    traj.states.push_back(state);
    traj.entry_times.push_back(t);
  }
  traj.end_time = traj.absorbed ? t : horizon;
  return traj;
}

std::vector<double> estimate_transient(const Ctmc& chain, std::size_t start,
                                       double t, std::size_t n,
                                       mathx::Rng& rng) {
  if (n == 0) throw std::invalid_argument("estimate_transient: n == 0");
  std::vector<double> counts(chain.num_states(), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Trajectory traj = sample_trajectory(chain, start, t, rng);
    counts[traj.states.back()] += 1.0;
  }
  for (double& c : counts) c /= static_cast<double>(n);
  return counts;
}

std::optional<double> sample_first_passage(
    const Ctmc& chain, std::size_t start,
    const std::vector<std::size_t>& targets, double horizon, mathx::Rng& rng) {
  if (targets.empty()) {
    throw std::invalid_argument("sample_first_passage: no targets");
  }
  const auto is_target = [&](std::size_t s) {
    return std::find(targets.begin(), targets.end(), s) != targets.end();
  };
  if (is_target(start)) return 0.0;
  const Trajectory traj = sample_trajectory(chain, start, horizon, rng);
  for (std::size_t i = 1; i < traj.states.size(); ++i) {
    if (is_target(traj.states[i])) return traj.entry_times[i];
  }
  return std::nullopt;
}

FirstPassageStats estimate_first_passage(const Ctmc& chain, std::size_t start,
                                         const std::vector<std::size_t>& targets,
                                         double horizon, std::size_t n,
                                         mathx::Rng& rng) {
  if (n == 0) throw std::invalid_argument("estimate_first_passage: n == 0");
  FirstPassageStats stats;
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto hit = sample_first_passage(chain, start, targets, horizon, rng);
    if (hit.has_value()) {
      stats.samples.push_back(*hit);
      total += *hit;
    }
  }
  stats.hit_fraction =
      static_cast<double>(stats.samples.size()) / static_cast<double>(n);
  if (!stats.samples.empty()) {
    stats.mean_time = total / static_cast<double>(stats.samples.size());
  }
  return stats;
}

}  // namespace sesame::markov
