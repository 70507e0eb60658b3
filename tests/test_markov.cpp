// Tests for the CTMC/DTMC engines: transient analysis correctness against
// closed-form results, absorbing-state behaviour, builder validation.
#include <cmath>

#include <gtest/gtest.h>

#include "sesame/markov/ctmc.hpp"
#include "sesame/mathx/rng.hpp"

namespace mk = sesame::markov;
namespace mx = sesame::mathx;

namespace {

/// Two-state birth-death: healthy -> failed at rate lambda.
mk::Ctmc simple_failure_chain(double lambda) {
  mk::CtmcBuilder b;
  const auto healthy = b.add_state("healthy");
  const auto failed = b.add_state("failed");
  b.add_transition(healthy, failed, lambda);
  return b.build();
}

}  // namespace

TEST(Ctmc, RejectsBadGenerators) {
  EXPECT_THROW(mk::Ctmc(mx::Matrix(2, 3)), std::invalid_argument);
  // Row does not sum to zero.
  EXPECT_THROW(mk::Ctmc(mx::Matrix{{-1.0, 0.5}, {0.0, 0.0}}), std::invalid_argument);
  // Negative off-diagonal.
  EXPECT_THROW(mk::Ctmc(mx::Matrix{{1.0, -1.0}, {0.0, 0.0}}), std::invalid_argument);
}

TEST(Ctmc, TwoStateMatchesClosedForm) {
  const double lambda = 0.01;
  auto chain = simple_failure_chain(lambda);
  for (double t : {0.0, 10.0, 100.0, 500.0}) {
    const auto pi = chain.transient({1.0, 0.0}, t);
    EXPECT_NEAR(pi[1], 1.0 - std::exp(-lambda * t), 1e-9) << "t=" << t;
    EXPECT_NEAR(pi[0] + pi[1], 1.0, 1e-9);
  }
}

TEST(Ctmc, RepairableMachineMatchesClosedForm) {
  // healthy <-> failed with rates lambda, mu. Availability
  // A(t) = mu/(l+m) + l/(l+m) e^{-(l+m)t} starting healthy.
  const double lambda = 0.02, mu = 0.05;
  mk::CtmcBuilder b;
  const auto up = b.add_state("up");
  const auto down = b.add_state("down");
  b.add_transition(up, down, lambda).add_transition(down, up, mu);
  auto chain = b.build();
  for (double t : {1.0, 20.0, 200.0}) {
    const auto pi = chain.transient({1.0, 0.0}, t);
    const double expected =
        mu / (lambda + mu) + lambda / (lambda + mu) * std::exp(-(lambda + mu) * t);
    EXPECT_NEAR(pi[0], expected, 1e-9) << "t=" << t;
  }
}

TEST(Ctmc, TransientValidatesInput) {
  auto chain = simple_failure_chain(0.1);
  EXPECT_THROW(chain.transient({0.5, 0.2}, 1.0), std::invalid_argument);
  EXPECT_THROW(chain.transient({1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(chain.transient({1.0, 0.0}, -1.0), std::invalid_argument);
}

TEST(Ctmc, AbsorbingStateDetection) {
  auto chain = simple_failure_chain(0.1);
  EXPECT_FALSE(chain.is_absorbing(0));
  EXPECT_TRUE(chain.is_absorbing(1));
  const auto abs = chain.absorbing_states();
  ASSERT_EQ(abs.size(), 1u);
  EXPECT_EQ(abs[0], 1u);
}

TEST(Ctmc, ProbabilityInSubset) {
  auto chain = simple_failure_chain(0.01);
  const double p = chain.probability_in({1.0, 0.0}, 100.0, {1});
  EXPECT_NEAR(p, 1.0 - std::exp(-1.0), 1e-9);
}

TEST(Ctmc, MeanTimeToAbsorptionSingleStage) {
  auto chain = simple_failure_chain(0.25);
  EXPECT_NEAR(chain.mean_time_to_absorption(0), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(chain.mean_time_to_absorption(1), 0.0);
}

TEST(Ctmc, MeanTimeToAbsorptionErlangStages) {
  // Three sequential stages each at rate 2 -> MTTA = 1.5.
  mk::CtmcBuilder b;
  const auto s0 = b.add_state("s0");
  const auto s1 = b.add_state("s1");
  const auto s2 = b.add_state("s2");
  const auto dead = b.add_state("dead");
  b.add_transition(s0, s1, 2.0).add_transition(s1, s2, 2.0).add_transition(s2, dead,
                                                                           2.0);
  EXPECT_NEAR(b.build().mean_time_to_absorption(s0), 1.5, 1e-9);
}

TEST(Ctmc, LongHorizonUsesExpmFallback) {
  // Large lambda*t exercises the expm fallback path (lt > 5000).
  auto chain = simple_failure_chain(100.0);
  const auto pi = chain.transient({1.0, 0.0}, 100.0);
  EXPECT_NEAR(pi[1], 1.0, 1e-9);
}

TEST(Ctmc, UniformizationMatchesExpmOnRandomChains) {
  mx::Rng rng(43);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5;
    mx::Matrix q(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        q(i, j) = rng.uniform(0.0, 0.3);
        row += q(i, j);
      }
      q(i, i) = -row;
    }
    mk::Ctmc chain(q);
    std::vector<double> pi0(n, 0.0);
    pi0[0] = 1.0;
    const double t = rng.uniform(0.5, 20.0);
    const auto uni = chain.transient(pi0, t);
    const auto exact = mx::expm(q * t).apply_transposed(pi0);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(uni[i], exact[i], 1e-8) << "state " << i;
    }
  }
}

TEST(CtmcBuilder, RejectsInvalidEdges) {
  mk::CtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  EXPECT_THROW(b.add_transition(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(b.add_transition(a, 5, 1.0), std::out_of_range);
  EXPECT_THROW(b.add_transition(a, c, -2.0), std::invalid_argument);
}

TEST(CtmcBuilder, NamesArePreserved) {
  mk::CtmcBuilder b;
  b.add_state("alpha");
  b.add_state("omega");
  auto chain = b.build();
  EXPECT_EQ(chain.state_name(0), "alpha");
  EXPECT_EQ(chain.state_name(1), "omega");
}

TEST(Dtmc, RejectsNonStochastic) {
  EXPECT_THROW(mk::Dtmc(mx::Matrix{{0.5, 0.4}, {0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(mk::Dtmc(mx::Matrix{{1.5, -0.5}, {0.0, 1.0}}), std::invalid_argument);
}

TEST(Dtmc, StepEvolution) {
  mk::Dtmc chain(mx::Matrix{{0.0, 1.0}, {1.0, 0.0}});
  const auto pi1 = chain.step({1.0, 0.0}, 1);
  EXPECT_DOUBLE_EQ(pi1[1], 1.0);
  const auto pi2 = chain.step({1.0, 0.0}, 2);
  EXPECT_DOUBLE_EQ(pi2[0], 1.0);
}

TEST(Dtmc, StationaryDistribution) {
  mk::Dtmc chain(mx::Matrix{{0.9, 0.1}, {0.5, 0.5}});
  const auto pi = chain.stationary();
  // Solve pi = pi P -> pi = (5/6, 1/6).
  EXPECT_NEAR(pi[0], 5.0 / 6.0, 1e-9);
  EXPECT_NEAR(pi[1], 1.0 / 6.0, 1e-9);
}

// Property: transient distributions remain valid probability vectors.
TEST(CtmcProperty, TransientIsDistribution) {
  mx::Rng rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    mk::CtmcBuilder b;
    const std::size_t n = 4 + trial % 3;
    for (std::size_t i = 0; i < n; ++i) b.add_state("s" + std::to_string(i));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j && rng.bernoulli(0.5)) {
          b.add_transition(i, j, rng.uniform(0.01, 2.0));
        }
      }
    }
    auto chain = b.build();
    std::vector<double> pi0(n, 0.0);
    pi0[rng.uniform_index(n)] = 1.0;
    for (double t : {0.1, 1.0, 10.0, 100.0}) {
      const auto pi = chain.transient(pi0, t);
      double sum = 0.0;
      for (double p : pi) {
        EXPECT_GE(p, -1e-10);
        sum += p;
      }
      EXPECT_NEAR(sum, 1.0, 1e-8);
    }
  }
}

// Property: failure probability of a pure-death chain is monotone in time.
TEST(CtmcProperty, AbsorptionProbabilityMonotone) {
  auto chain = simple_failure_chain(0.005);
  double prev = -1.0;
  for (double t = 0.0; t <= 1000.0; t += 50.0) {
    const double p = chain.probability_in({1.0, 0.0}, t, {1});
    EXPECT_GE(p, prev);
    prev = p;
  }
}

#include "sesame/testing/ctmc_simulate.hpp"

TEST(Simulate, TrajectoryRespectsChainStructure) {
  mk::CtmcBuilder b;
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  const auto d = b.add_state("dead");
  b.add_transition(a, c, 1.0).add_transition(c, d, 1.0);
  const auto chain = b.build();
  mx::Rng rng(71);
  for (int i = 0; i < 50; ++i) {
    const auto traj = mk::sample_trajectory(chain, a, 100.0, rng);
    ASSERT_FALSE(traj.states.empty());
    EXPECT_EQ(traj.states.front(), a);
    // Visits are in chain order a -> b -> dead (no skipping).
    for (std::size_t k = 1; k < traj.states.size(); ++k) {
      EXPECT_EQ(traj.states[k], traj.states[k - 1] + 1);
      EXPECT_GE(traj.entry_times[k], traj.entry_times[k - 1]);
    }
    if (traj.absorbed) {
      EXPECT_EQ(traj.states.back(), d);
    }
  }
}

TEST(Simulate, TrajectoryValidation) {
  auto chain = simple_failure_chain(0.1);
  mx::Rng rng(1);
  EXPECT_THROW(mk::sample_trajectory(chain, 9, 1.0, rng), std::out_of_range);
  EXPECT_THROW(mk::sample_trajectory(chain, 0, -1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(mk::estimate_transient(chain, 0, 1.0, 0, rng),
               std::invalid_argument);
}

TEST(Simulate, MonteCarloMatchesAnalyticTransient) {
  const double lambda = 0.05;
  auto chain = simple_failure_chain(lambda);
  mx::Rng rng(73);
  const double t = 20.0;
  const auto mc = mk::estimate_transient(chain, 0, t, 20000, rng);
  const double analytic = 1.0 - std::exp(-lambda * t);
  EXPECT_NEAR(mc[1], analytic, 0.02);
}

TEST(Simulate, FirstPassageMatchesMtta) {
  // Single-stage chain: first-passage time is Exp(lambda), mean 1/lambda.
  const double lambda = 0.2;
  auto chain = simple_failure_chain(lambda);
  mx::Rng rng(79);
  const auto stats = mk::estimate_first_passage(chain, 0, {1}, 1000.0, 5000, rng);
  EXPECT_GT(stats.hit_fraction, 0.99);
  EXPECT_NEAR(stats.mean_time, 1.0 / lambda, 0.2);
}

TEST(Simulate, FirstPassageFromTargetIsZero) {
  auto chain = simple_failure_chain(0.1);
  mx::Rng rng(83);
  const auto hit = mk::sample_first_passage(chain, 1, {1}, 10.0, rng);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.0);
}

TEST(Simulate, HorizonLimitsHits) {
  auto chain = simple_failure_chain(0.001);  // slow failures
  mx::Rng rng(89);
  const auto stats = mk::estimate_first_passage(chain, 0, {1}, 1.0, 2000, rng);
  EXPECT_LT(stats.hit_fraction, 0.05);  // ~0.1% expected
  EXPECT_THROW(mk::sample_first_passage(chain, 0, {}, 1.0, rng),
               std::invalid_argument);
}

TEST(Occupancy, TwoStateMatchesClosedForm) {
  // healthy -> failed at rate l: E[time healthy over [0,T]] =
  // (1 - e^{-lT})/l; occupancy entries sum to T.
  const double lambda = 0.05;
  auto chain = simple_failure_chain(lambda);
  const double horizon = 40.0;
  const auto occ = chain.expected_occupancy({1.0, 0.0}, horizon);
  const double healthy = (1.0 - std::exp(-lambda * horizon)) / lambda;
  EXPECT_NEAR(occ[0], healthy, 1e-6);
  EXPECT_NEAR(occ[0] + occ[1], horizon, 1e-6);
}

TEST(Occupancy, ValidatesInputs) {
  auto chain = simple_failure_chain(0.1);
  EXPECT_THROW(chain.expected_occupancy({1.0, 0.0}, -1.0),
               std::invalid_argument);
  EXPECT_THROW(chain.expected_occupancy({1.0, 0.0}, 1.0, 0),
               std::invalid_argument);
  const auto zero = chain.expected_occupancy({1.0, 0.0}, 0.0);
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

TEST(Occupancy, RepairableSteadyStateShare) {
  // Fast-mixing repairable machine: occupancy over a long horizon
  // approaches the stationary split mu/(l+mu), l/(l+mu).
  mk::CtmcBuilder b;
  const auto up = b.add_state("up");
  const auto down = b.add_state("down");
  b.add_transition(up, down, 0.5).add_transition(down, up, 1.5);
  const auto chain = b.build();
  const double horizon = 200.0;
  const auto occ = chain.expected_occupancy({1.0, 0.0}, horizon, 200);
  EXPECT_NEAR(occ[0] / horizon, 0.75, 0.01);
  EXPECT_NEAR(occ[1] / horizon, 0.25, 0.01);
}

TEST(EmbeddedDtmc, JumpProbabilitiesNormalized) {
  mk::CtmcBuilder b;
  const auto s0 = b.add_state("s0");
  const auto s1 = b.add_state("s1");
  const auto s2 = b.add_state("s2");
  b.add_transition(s0, s1, 2.0).add_transition(s0, s2, 6.0);
  b.add_transition(s1, s0, 1.0);
  const auto jump = b.build().embedded_dtmc();
  // From s0: P(->s1) = 2/8, P(->s2) = 6/8.
  EXPECT_NEAR(jump.transition()(s0, s1), 0.25, 1e-12);
  EXPECT_NEAR(jump.transition()(s0, s2), 0.75, 1e-12);
  // s2 is absorbing -> self-loop.
  EXPECT_DOUBLE_EQ(jump.transition()(s2, s2), 1.0);
  // Names carried over.
  EXPECT_EQ(jump.state_name(1), "s1");
}

TEST(EmbeddedDtmc, AbsorptionProbabilityMatchesCtmc) {
  // Competing risks from s0: absorb in a (rate 1) or b (rate 3). The
  // CTMC's eventual absorption split equals the jump chain's first step.
  mk::CtmcBuilder b;
  const auto s0 = b.add_state("s0");
  const auto a = b.add_state("a");
  const auto c = b.add_state("b");
  b.add_transition(s0, a, 1.0).add_transition(s0, c, 3.0);
  const auto chain = b.build();
  const auto ctmc_split = chain.transient({1.0, 0.0, 0.0}, 1e4);
  const auto jump_split = chain.embedded_dtmc().step({1.0, 0.0, 0.0}, 1);
  EXPECT_NEAR(ctmc_split[a], jump_split[a], 1e-9);
  EXPECT_NEAR(ctmc_split[c], jump_split[c], 1e-9);
  EXPECT_NEAR(jump_split[a], 0.25, 1e-12);
}

TEST(Ctmc, ScaledRatesMatchesRebuiltChain) {
  mk::CtmcBuilder b;
  const auto h = b.add_state("healthy");
  const auto l = b.add_state("low");
  const auto f = b.add_state("failed");
  b.add_transition(h, l, 1.0 / 7200.0);
  b.add_transition(l, f, 1.0 / 1800.0);
  const mk::Ctmc base = b.build();

  const double factor = 3.7;
  const mk::Ctmc scaled = base.scaled_rates(factor);

  mk::CtmcBuilder b2;
  const auto h2 = b2.add_state("healthy");
  const auto l2 = b2.add_state("low");
  const auto f2 = b2.add_state("failed");
  b2.add_transition(h2, l2, (1.0 / 7200.0) * factor);
  b2.add_transition(l2, f2, (1.0 / 1800.0) * factor);
  const mk::Ctmc rebuilt = b2.build();

  // Bit-identical generators: (-r)*f == -(r*f) in IEEE arithmetic for the
  // single-exit rows these models use.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(scaled.generator()(i, j), rebuilt.generator()(i, j))
          << "entry (" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(scaled.state_name(0), "healthy");

  // Transient results follow bit-for-bit.
  const std::vector<double> pi0{1.0, 0.0, 0.0};
  const auto a = scaled.transient(pi0, 600.0);
  const auto c = rebuilt.transient(pi0, 600.0);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(a[i], c[i]);
}

TEST(Ctmc, ScaledRatesRejectsNonPositiveFactor) {
  const mk::Ctmc chain = simple_failure_chain(1e-3);
  EXPECT_THROW(chain.scaled_rates(0.0), std::invalid_argument);
  EXPECT_THROW(chain.scaled_rates(-1.0), std::invalid_argument);
  EXPECT_NO_THROW(chain.scaled_rates(1.0));
}
