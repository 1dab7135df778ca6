#include "oracles/dense_model.h"

#include <algorithm>
#include <cmath>

namespace entropydb {

namespace {
std::vector<uint32_t> CopySizes(const VariableRegistry& reg) {
  return reg.domain_sizes();
}
}  // namespace

Result<DenseMaxEntModel> DenseMaxEntModel::Create(const VariableRegistry& reg,
                                                  uint64_t max_tuples) {
  TupleSpace space(CopySizes(reg));
  if (space.size() > max_tuples) {
    return Status::ResourceExhausted(
        "dense model refused: |Tup| = " + std::to_string(space.size()) +
        " exceeds cap " + std::to_string(max_tuples));
  }
  return DenseMaxEntModel(reg);
}

double DenseMaxEntModel::Weight(const ModelState& state,
                                const std::vector<Code>& tuple, int skip_attr,
                                int skip_stat) const {
  double w = 1.0;
  for (AttrId a = 0; a < reg_->num_attributes(); ++a) {
    if (static_cast<int>(a) == skip_attr) continue;
    w *= state.alpha[a][tuple[a]];
    if (w == 0.0) return 0.0;
  }
  for (uint32_t j = 0; j < reg_->num_multi_dim(); ++j) {
    if (static_cast<int>(j) == skip_stat) continue;
    if (reg_->multi_dim(j).ContainsTuple(tuple)) w *= state.delta[j];
    if (w == 0.0) return 0.0;
  }
  return w;
}

double DenseMaxEntModel::Evaluate(const ModelState& state,
                                  const CountingQuery& q) const {
  double p = 0.0;
  for (uint64_t t = 0; t < space_.size(); ++t) {
    auto tuple = space_.TupleAt(t);
    if (q.Matches(tuple)) p += Weight(state, tuple, -1, -1);
  }
  return p;
}

double DenseMaxEntModel::AlphaDerivative(const ModelState& state, AttrId a,
                                         Code v) const {
  double d = 0.0;
  for (uint64_t t = 0; t < space_.size(); ++t) {
    auto tuple = space_.TupleAt(t);
    if (tuple[a] != v) continue;
    d += Weight(state, tuple, static_cast<int>(a), -1);
  }
  return d;
}

double DenseMaxEntModel::DeltaDerivative(const ModelState& state,
                                         uint32_t j) const {
  double d = 0.0;
  for (uint64_t t = 0; t < space_.size(); ++t) {
    auto tuple = space_.TupleAt(t);
    if (!reg_->multi_dim(j).ContainsTuple(tuple)) continue;
    d += Weight(state, tuple, -1, static_cast<int>(j));
  }
  return d;
}

double DenseMaxEntModel::CountEstimate(const ModelState& state,
                                     const CountingQuery& q) const {
  const double full = EvaluateUnmasked(state);
  if (!(full > 0.0)) return 0.0;
  return reg_->n() * Evaluate(state, q) / full;
}

double DenseMaxEntModel::TupleProbability(
    const ModelState& state, const std::vector<Code>& tuple) const {
  const double full = EvaluateUnmasked(state);
  if (!(full > 0.0)) return 0.0;
  return Weight(state, tuple, -1, -1) / full;
}

DenseSolveReport DenseMaxEntModel::SolveNaive(ModelState* state,
                                              size_t max_iterations,
                                              double tolerance) const {
  const double n = reg_->n();
  DenseSolveReport report;
  for (size_t it = 0; it < max_iterations; ++it) {
    double max_err = 0.0;
    // 1-D variables.
    for (AttrId a = 0; a < reg_->num_attributes(); ++a) {
      for (Code v = 0; v < reg_->domain_size(a); ++v) {
        const double s = reg_->OneDTarget(a, v);
        double& alpha = state->alpha[a][v];
        if (s <= 0.0) {
          alpha = 0.0;
          continue;
        }
        if (s >= n) continue;
        const double av = AlphaDerivative(*state, a, v);
        if (av <= 0.0) continue;
        const double p = EvaluateUnmasked(*state);
        const double expected = alpha * av / p * n;
        max_err = std::max(max_err, std::abs(expected - s) / n);
        const double b = p - alpha * av;
        alpha = s * b / ((n - s) * av);
      }
    }
    // Multi-dim variables.
    for (uint32_t j = 0; j < reg_->num_multi_dim(); ++j) {
      const double s = reg_->multi_dim(j).target;
      double& delta = state->delta[j];
      if (s <= 0.0) {
        delta = 0.0;
        continue;
      }
      if (s >= n) continue;
      const double av = DeltaDerivative(*state, j);
      if (av <= 0.0) continue;
      const double p = EvaluateUnmasked(*state);
      const double expected = delta * av / p * n;
      max_err = std::max(max_err, std::abs(expected - s) / n);
      const double b = p - delta * av;
      delta = s * b / ((n - s) * av);
    }
    report.iterations = it + 1;
    report.final_error = max_err;
    if (max_err < tolerance) {
      report.converged = true;
      break;
    }
  }
  return report;
}

}  // namespace entropydb
