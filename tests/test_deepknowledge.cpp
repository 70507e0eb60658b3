// Tests for DeepKnowledge: MLP forward/backward correctness, training
// convergence on a separable problem, TK-neuron selection, the
// coverage/uncertainty behaviour under domain shift, and the bucket-code
// path checked against the original set-based assessment.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "sesame/deepknowledge/analysis.hpp"
#include "sesame/deepknowledge/mlp.hpp"
#include "sesame/mathx/rng.hpp"

namespace dk = sesame::deepknowledge;
namespace mx = sesame::mathx;

namespace {

/// Two-moon-ish separable dataset: label = 1 when x0 + x1 > 0.
void make_dataset(mx::Rng& rng, std::size_t n, double shift,
                  std::vector<std::vector<double>>& inputs,
                  std::vector<std::vector<double>>& targets) {
  inputs.clear();
  targets.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.normal(shift, 1.0);
    const double x1 = rng.normal(0.0, 1.0);
    inputs.push_back({x0, x1});
    targets.push_back({x0 + x1 > 0.0 ? 1.0 : 0.0});
  }
}

/// Oracle: the original Analyzer::assess, kept verbatim as a reference. It
/// collects the hit (TK neuron, bucket) cells of the whole window in a set.
dk::CoverageReport oracle_assess(const dk::Analyzer& an, const dk::Mlp& model,
                                 const std::vector<std::vector<double>>& window) {
  const auto& tk_neurons = an.tk_neurons();
  const std::size_t buckets = an.config().buckets;
  std::set<std::pair<std::size_t, std::size_t>> hits;
  std::size_t total_obs = 0;
  std::size_t oor = 0;
  dk::ActivationTrace trace;
  for (const auto& input : window) {
    model.forward_traced(input, trace);
    for (std::size_t t = 0; t < tk_neurons.size(); ++t) {
      const auto& p = tk_neurons[t];
      const double a = trace.at(p.id.layer).at(p.id.index);
      ++total_obs;
      const double span = p.train_max - p.train_min;
      if (a < p.train_min - 1e-12 || a > p.train_max + 1e-12) {
        ++oor;
        continue;
      }
      std::size_t bucket = 0;
      if (span > 1e-12) {
        bucket = static_cast<std::size_t>((a - p.train_min) / span *
                                          static_cast<double>(buckets));
        bucket = std::min(bucket, buckets - 1);
      }
      hits.insert({t, bucket});
    }
  }
  dk::CoverageReport r;
  const double total_buckets = static_cast<double>(tk_neurons.size() * buckets);
  r.coverage = total_buckets > 0.0
                   ? static_cast<double>(hits.size()) / total_buckets
                   : 0.0;
  r.out_of_range =
      total_obs > 0 ? static_cast<double>(oor) / static_cast<double>(total_obs)
                    : 0.0;
  const double attainable =
      std::min<double>(static_cast<double>(window.size()),
                       static_cast<double>(buckets)) /
      static_cast<double>(buckets);
  const double effective_cov =
      attainable > 0.0 ? std::min(1.0, r.coverage / attainable) : 0.0;
  r.uncertainty = std::clamp(1.0 - effective_cov * (1.0 - r.out_of_range),
                             0.0, 1.0);
  r.window_size = window.size();
  return r;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

TEST(Mlp, ConstructionValidation) {
  mx::Rng rng(1);
  EXPECT_THROW(dk::Mlp({4}, rng), std::invalid_argument);
  EXPECT_THROW(dk::Mlp({4, 0, 1}, rng), std::invalid_argument);
  dk::Mlp net({3, 5, 2}, rng);
  EXPECT_EQ(net.input_size(), 3u);
  EXPECT_EQ(net.output_size(), 2u);
  EXPECT_EQ(net.num_hidden_layers(), 1u);
  EXPECT_EQ(net.hidden_size(0), 5u);
  EXPECT_EQ(net.num_hidden_neurons(), 5u);
}

TEST(Mlp, ForwardOutputsInUnitInterval) {
  mx::Rng rng(2);
  dk::Mlp net({2, 8, 1}, rng);
  for (int i = 0; i < 20; ++i) {
    const auto out = net.forward({rng.normal(), rng.normal()});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_GT(out[0], 0.0);
    EXPECT_LT(out[0], 1.0);
  }
}

TEST(Mlp, ForwardRejectsBadInput) {
  mx::Rng rng(3);
  dk::Mlp net({2, 4, 1}, rng);
  EXPECT_THROW(net.forward({1.0}), std::invalid_argument);
}

TEST(Mlp, TracedForwardCapturesHiddenLayers) {
  mx::Rng rng(4);
  dk::Mlp net({2, 6, 4, 1}, rng);
  dk::ActivationTrace trace;
  net.forward_traced({0.5, -0.5}, trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].size(), 6u);
  EXPECT_EQ(trace[1].size(), 4u);
  for (const auto& layer : trace) {
    for (double a : layer) EXPECT_GE(a, 0.0);  // ReLU output
  }
}

TEST(Mlp, DeterministicGivenSeed) {
  mx::Rng r1(7), r2(7);
  dk::Mlp a({2, 4, 1}, r1), b({2, 4, 1}, r2);
  const auto oa = a.forward({0.3, 0.7});
  const auto ob = b.forward({0.3, 0.7});
  EXPECT_DOUBLE_EQ(oa[0], ob[0]);
}

TEST(Mlp, TrainingReducesLossAndLearnsSeparableTask) {
  mx::Rng rng(11);
  std::vector<std::vector<double>> inputs, targets;
  make_dataset(rng, 400, 0.0, inputs, targets);
  dk::Mlp net({2, 8, 1}, rng);
  const double initial_loss = net.train_epoch(inputs, targets, 0.05, rng);
  double final_loss = initial_loss;
  for (int e = 0; e < 30; ++e) {
    final_loss = net.train_epoch(inputs, targets, 0.05, rng);
  }
  EXPECT_LT(final_loss, initial_loss * 0.5);
  EXPECT_GT(net.accuracy(inputs, targets), 0.95);
}

TEST(Mlp, TrainEpochValidatesDataset) {
  mx::Rng rng(13);
  dk::Mlp net({2, 4, 1}, rng);
  std::vector<std::vector<double>> inputs{{1.0, 2.0}};
  EXPECT_THROW(net.train_epoch(inputs, {}, 0.1, rng), std::invalid_argument);
  EXPECT_THROW(net.train_epoch(inputs, {{1.0, 0.0}}, 0.1, rng),
               std::invalid_argument);
  EXPECT_THROW(net.accuracy({}, {}), std::invalid_argument);
}

TEST(Analyzer, ConstructionValidation) {
  mx::Rng rng(17);
  dk::Mlp net({2, 4, 1}, rng);
  std::vector<std::vector<double>> data{{0.0, 0.0}};
  EXPECT_THROW(dk::Analyzer(net, {}, data), std::invalid_argument);
  EXPECT_THROW(dk::Analyzer(net, data, {}), std::invalid_argument);
  dk::AnalysisConfig bad;
  bad.top_k = 0;
  EXPECT_THROW(dk::Analyzer(net, data, data, bad), std::invalid_argument);
  dk::Mlp shallow({2, 1}, rng);
  EXPECT_THROW(dk::Analyzer(shallow, data, data), std::invalid_argument);
}

TEST(Analyzer, ProfilesCoverAllHiddenNeurons) {
  mx::Rng rng(19);
  dk::Mlp net({2, 6, 4, 1}, rng);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 100, 0.0, train, targets);
  std::vector<std::vector<double>> shifted, _t;
  make_dataset(rng, 100, 2.0, shifted, _t);
  dk::Analyzer an(net, train, shifted);
  EXPECT_EQ(an.profiles().size(), net.num_hidden_neurons());
  // Profiles sorted descending by transfer score.
  for (std::size_t i = 1; i < an.profiles().size(); ++i) {
    EXPECT_GE(an.profiles()[i - 1].transfer_score,
              an.profiles()[i].transfer_score);
  }
}

TEST(Analyzer, TkSelectionRespectsTopK) {
  mx::Rng rng(23);
  dk::Mlp net({2, 10, 1}, rng);
  std::vector<std::vector<double>> train, targets, shifted, _t;
  make_dataset(rng, 100, 0.0, train, targets);
  make_dataset(rng, 100, 1.0, shifted, _t);
  dk::AnalysisConfig cfg;
  cfg.top_k = 3;
  dk::Analyzer an(net, train, shifted, cfg);
  EXPECT_EQ(an.tk_neurons().size(), 3u);
  // TK neurons have the highest scores among all profiles.
  EXPECT_DOUBLE_EQ(an.tk_neurons()[0].transfer_score,
                   an.profiles()[0].transfer_score);
}

TEST(Analyzer, NoShiftGivesLowGeneralisationShift) {
  mx::Rng rng(29);
  dk::Mlp net({2, 8, 1}, rng);
  std::vector<std::vector<double>> train, targets, same, _t;
  make_dataset(rng, 400, 0.0, train, targets);
  make_dataset(rng, 400, 0.0, same, _t);
  std::vector<std::vector<double>> far, _t2;
  make_dataset(rng, 400, 3.0, far, _t2);
  dk::Analyzer an_same(net, train, same);
  dk::Analyzer an_far(net, train, far);
  EXPECT_LT(an_same.generalisation_shift(), an_far.generalisation_shift());
}

TEST(Analyzer, InDistributionWindowLowUncertainty) {
  mx::Rng rng(31);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 500, 0.0, train, targets);
  dk::Mlp net({2, 8, 1}, rng);
  for (int e = 0; e < 10; ++e) net.train_epoch(train, targets, 0.05, rng);
  std::vector<std::vector<double>> shifted, _t;
  make_dataset(rng, 500, 2.0, shifted, _t);
  dk::Analyzer an(net, train, shifted);

  std::vector<std::vector<double>> window, _t2;
  make_dataset(rng, 64, 0.0, window, _t2);
  const auto in_dist = an.assess(net, window);

  std::vector<std::vector<double>> far_window, _t3;
  make_dataset(rng, 64, 6.0, far_window, _t3);
  const auto out_dist = an.assess(net, far_window);

  EXPECT_LT(in_dist.uncertainty, out_dist.uncertainty);
  EXPECT_GT(in_dist.coverage, 0.0);
  EXPECT_GT(out_dist.out_of_range, in_dist.out_of_range);
}

TEST(Analyzer, AssessRejectsEmptyWindow) {
  mx::Rng rng(37);
  dk::Mlp net({2, 4, 1}, rng);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 50, 0.0, train, targets);
  dk::Analyzer an(net, train, train);
  EXPECT_THROW(an.assess(net, {}), std::invalid_argument);
}

TEST(Analyzer, ReportFieldsWithinRanges) {
  mx::Rng rng(41);
  std::vector<std::vector<double>> train, targets;
  make_dataset(rng, 200, 0.0, train, targets);
  dk::Mlp net({2, 6, 1}, rng);
  dk::Analyzer an(net, train, train);
  for (double shift : {0.0, 1.0, 4.0, 10.0}) {
    std::vector<std::vector<double>> window, _t;
    make_dataset(rng, 32, shift, window, _t);
    const auto r = an.assess(net, window);
    EXPECT_GE(r.coverage, 0.0);
    EXPECT_LE(r.coverage, 1.0);
    EXPECT_GE(r.out_of_range, 0.0);
    EXPECT_LE(r.out_of_range, 1.0);
    EXPECT_GE(r.uncertainty, 0.0);
    EXPECT_LE(r.uncertainty, 1.0);
    EXPECT_EQ(r.window_size, 32u);
  }
}

TEST(Mlp, HiddenActivationsMatchTheTracedForwardPass) {
  mx::Rng rng(61);
  dk::Mlp net({3, 6, 5, 1}, rng);
  dk::ActivationTrace traced, reused;
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> x{rng.normal(), rng.normal(), rng.normal()};
    net.forward_traced(x, traced);
    net.hidden_activations(x, reused);  // warm after the first input
    ASSERT_EQ(reused.size(), traced.size());
    for (std::size_t l = 0; l < traced.size(); ++l) {
      ASSERT_EQ(reused[l].size(), traced[l].size());
      for (std::size_t n = 0; n < traced[l].size(); ++n) {
        ASSERT_TRUE(same_bits(reused[l][n], traced[l][n]));
      }
    }
  }
  EXPECT_THROW(net.hidden_activations({1.0}, reused), std::invalid_argument);
}

TEST(Analyzer, AssessMatchesTheSetBasedOracleBitForBit) {
  // Generated windows of 1..40 inputs, in-domain through far out of range,
  // on a two-hidden-layer net so TK neurons come from both layers.
  mx::Rng rng(67);
  std::vector<std::vector<double>> train, targets, shifted, _t;
  make_dataset(rng, 300, 0.0, train, targets);
  make_dataset(rng, 300, 2.5, shifted, _t);
  dk::Mlp net({2, 6, 5, 1}, rng);
  for (int e = 0; e < 5; ++e) net.train_epoch(train, targets, 0.05, rng);
  for (const std::size_t top_k : {1u, 4u, 11u}) {
    dk::AnalysisConfig cfg;
    cfg.top_k = top_k;
    cfg.buckets = 7;
    const dk::Analyzer an(net, train, shifted, cfg);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<std::vector<double>> window, _w;
      make_dataset(rng, 1 + rng.uniform_index(40), 0.15 * trial, window, _w);
      const auto got = an.assess(net, window);
      const auto want = oracle_assess(an, net, window);
      ASSERT_TRUE(same_bits(got.coverage, want.coverage)) << trial;
      ASSERT_TRUE(same_bits(got.out_of_range, want.out_of_range)) << trial;
      ASSERT_TRUE(same_bits(got.uncertainty, want.uncertainty)) << trial;
      ASSERT_EQ(got.window_size, want.window_size);
    }
  }
}

TEST(Analyzer, BucketCodesAreBucketsOrTheOutOfRangeCode) {
  mx::Rng rng(71);
  std::vector<std::vector<double>> train, targets, far, _t;
  make_dataset(rng, 200, 0.0, train, targets);
  make_dataset(rng, 50, 8.0, far, _t);
  dk::Mlp net({2, 8, 1}, rng);
  const dk::Analyzer an(net, train, train);
  std::vector<std::size_t> codes(an.tk_neurons().size());
  dk::ActivationTrace trace;
  bool saw_oor = false;
  for (const auto& x : far) {
    an.bucket_codes(net, x, trace, codes);
    for (const std::size_t c : codes) {
      EXPECT_TRUE(c < an.config().buckets || c == an.out_of_range_code());
      saw_oor = saw_oor || c == an.out_of_range_code();
    }
  }
  EXPECT_TRUE(saw_oor);
  // A rejected input leaves the codes untouched.
  const auto before = codes;
  EXPECT_THROW(an.bucket_codes(net, {1.0, 2.0, 3.0}, trace, codes),
               std::invalid_argument);
  EXPECT_EQ(codes, before);
}
