#include "oracles/gradient_solver.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"

namespace entropydb {

double GradientMaxEntSolver::Dual(const ModelState& state,
                                  double p_value) const {
  double psi = 0.0;
  for (AttrId a = 0; a < reg_.num_attributes(); ++a) {
    for (Code v = 0; v < reg_.domain_size(a); ++v) {
      const double s = reg_.OneDTarget(a, v);
      if (s > 0.0 && state.alpha[a][v] > 0.0) {
        psi += s * std::log(state.alpha[a][v]);
      }
    }
  }
  for (uint32_t j = 0; j < reg_.num_multi_dim(); ++j) {
    const double s = reg_.multi_dim(j).target;
    if (s > 0.0 && state.delta[j] > 0.0) {
      psi += s * std::log(state.delta[j]);
    }
  }
  return psi - reg_.n() * std::log(p_value);
}

Result<SolverReport> GradientMaxEntSolver::Solve(ModelState* state) const {
  Timer timer;
  SolverReport report;
  const double n = reg_.n();
  double step = opts_.step;

  auto ctx = poly_.EvaluateUnmasked(*state);
  if (!(ctx.value > 0.0) || !std::isfinite(ctx.value)) {
    return Status::FailedPrecondition(
        "polynomial non-positive at the gradient solver's start");
  }
  double psi = Dual(*state, ctx.value);

  for (size_t it = 0; it < opts_.max_iterations; ++it) {
    // Gradient in theta-space: g_j = (s_j - E_j) / n (normalized so the
    // step size is scale-free). One cofactor sweep produces every
    // derivative — alpha and delta alike — instead of a group walk per
    // attribute family plus one per statistic.
    const auto derivs = poly_.AllDerivatives(*state, ctx);
    std::vector<std::vector<double>> alpha_grad(reg_.num_attributes());
    std::vector<double> delta_grad(reg_.num_multi_dim(), 0.0);
    double max_err = 0.0;
    for (AttrId a = 0; a < reg_.num_attributes(); ++a) {
      const std::vector<double>& cof = derivs.alpha[a];
      alpha_grad[a].resize(reg_.domain_size(a), 0.0);
      for (Code v = 0; v < reg_.domain_size(a); ++v) {
        const double s = reg_.OneDTarget(a, v);
        if (s <= 0.0) {
          state->alpha[a][v] = 0.0;  // pinned
          continue;
        }
        const double e = n * state->alpha[a][v] * cof[v] / ctx.value;
        alpha_grad[a][v] = (s - e) / n;
        max_err = std::max(max_err, std::abs(s - e) / n);
      }
    }
    for (uint32_t j = 0; j < reg_.num_multi_dim(); ++j) {
      const double s = reg_.multi_dim(j).target;
      if (s <= 0.0) {
        state->delta[j] = 0.0;
        continue;
      }
      const double e = n * state->delta[j] * derivs.delta[j] / ctx.value;
      delta_grad[j] = (s - e) / n;
      max_err = std::max(max_err, std::abs(s - e) / n);
    }

    report.iterations = it + 1;
    report.final_error = max_err;
    if (opts_.record_trace) report.error_trace.push_back(max_err);
    if (max_err < opts_.tolerance) {
      report.converged = true;
      break;
    }

    // Backtracking ascent step on theta = ln(alpha):
    // alpha <- alpha * exp(step * g).
    ModelState trial = *state;
    bool improved = false;
    for (int attempt = 0; attempt < 20; ++attempt) {
      for (AttrId a = 0; a < reg_.num_attributes(); ++a) {
        for (Code v = 0; v < reg_.domain_size(a); ++v) {
          if (state->alpha[a][v] > 0.0) {
            trial.alpha[a][v] =
                state->alpha[a][v] * std::exp(step * alpha_grad[a][v]);
          }
        }
      }
      for (uint32_t j = 0; j < reg_.num_multi_dim(); ++j) {
        if (state->delta[j] > 0.0) {
          trial.delta[j] = state->delta[j] * std::exp(step * delta_grad[j]);
        }
      }
      auto trial_ctx = poly_.EvaluateUnmasked(trial);
      if (trial_ctx.value > 0.0 && std::isfinite(trial_ctx.value)) {
        const double trial_psi = Dual(trial, trial_ctx.value);
        if (trial_psi > psi) {
          *state = std::move(trial);
          ctx = std::move(trial_ctx);
          psi = trial_psi;
          improved = true;
          // Gentle step growth after a successful move.
          step = std::min(step / opts_.backoff * 0.9 + step * 0.1, 4.0);
          break;
        }
        trial = *state;  // reset and retry with a smaller step
      }
      step *= opts_.backoff;
      if (step < 1e-12) break;
    }
    if (!improved) break;  // line search stalled: report what we reached
  }
  report.wall_seconds = timer.ElapsedSeconds();
  report.converged = report.final_error < opts_.tolerance;
  return report;
}

}  // namespace entropydb
