#include "sesame/deepknowledge/test_selection.hpp"

#include <stdexcept>

namespace sesame::deepknowledge {

namespace {

/// TK-bucket cells hit by one input, as flat (tk_index * buckets + bucket)
/// indices in TK order; out-of-range activations contribute nothing (they
/// are anomalies, not coverage).
std::vector<std::size_t> cells_of(const Analyzer& analyzer, const Mlp& model,
                                  const std::vector<double>& input,
                                  ActivationTrace& trace) {
  std::vector<std::size_t> codes(analyzer.tk_neurons().size());
  analyzer.bucket_codes(model, input, trace, codes);
  std::vector<std::size_t> cells;
  for (std::size_t t = 0; t < codes.size(); ++t) {
    if (codes[t] != analyzer.out_of_range_code()) {
      cells.push_back(t * analyzer.config().buckets + codes[t]);
    }
  }
  return cells;
}

}  // namespace

std::vector<RankedInput> select_tests(
    const Analyzer& analyzer, const Mlp& model,
    const std::vector<std::vector<double>>& pool, std::size_t budget) {
  if (pool.empty()) throw std::invalid_argument("select_tests: empty pool");
  if (budget == 0) throw std::invalid_argument("select_tests: zero budget");

  // Precompute each candidate's cells.
  ActivationTrace trace;
  std::vector<std::vector<std::size_t>> candidate_cells;
  candidate_cells.reserve(pool.size());
  for (const auto& input : pool) {
    candidate_cells.push_back(cells_of(analyzer, model, input, trace));
  }

  const std::size_t total_cells =
      analyzer.tk_neurons().size() * analyzer.config().buckets;
  const double total_buckets = static_cast<double>(total_cells);
  std::vector<bool> covered(total_cells, false);
  std::size_t covered_count = 0;
  std::vector<bool> taken(pool.size(), false);
  std::vector<RankedInput> ranking;

  for (std::size_t round = 0; round < budget; ++round) {
    std::size_t best = pool.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      std::size_t gain = 0;
      for (const std::size_t c : candidate_cells[i]) {
        if (!covered[c]) ++gain;
      }
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == pool.size() || best_gain == 0) break;  // nothing adds coverage
    taken[best] = true;
    for (const std::size_t c : candidate_cells[best]) {
      if (!covered[c]) {
        covered[c] = true;
        ++covered_count;
      }
    }
    RankedInput r;
    r.pool_index = best;
    r.new_buckets = best_gain;
    r.cumulative_coverage =
        total_buckets > 0.0 ? static_cast<double>(covered_count) / total_buckets
                            : 0.0;
    ranking.push_back(r);
  }
  return ranking;
}

double suite_coverage(const Analyzer& analyzer, const Mlp& model,
                      const std::vector<std::vector<double>>& suite) {
  return suite.empty() ? 0.0 : analyzer.assess(model, suite).coverage;
}

}  // namespace sesame::deepknowledge
