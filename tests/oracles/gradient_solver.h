#ifndef ENTROPYDB_TESTS_ORACLES_GRADIENT_SOLVER_H_
#define ENTROPYDB_TESTS_ORACLES_GRADIENT_SOLVER_H_

#include "common/result.h"
#include "maxent/polynomial.h"
#include "maxent/solver.h"
#include "maxent/variable_registry.h"

namespace entropydb {

/// Options for the baseline gradient solver.
struct GradientSolverOptions {
  size_t max_iterations = 500;
  double tolerance = 1e-6;
  /// Initial step size on theta = ln(alpha); backtracked on dual decrease.
  double step = 0.5;
  /// Multiplicative backoff when a step does not improve the dual.
  double backoff = 0.5;
  bool record_trace = false;
};

/// \brief Baseline solver: full-gradient ascent on the dual Psi (Eq 11) in
/// the natural parameters theta_j = ln(alpha_j), with backtracking line
/// search.
///
/// Sec 2 of the paper notes the MaxEnt model "can be solved by reducing it
/// to a convex optimization problem of a dual function, which can be
/// solved using Gradient Descent. However, even this is difficult given the
/// size of our model" — their remedy is the coordinate mirror-descent of
/// Algorithm 1 (our MaxEntSolver). This class implements the gradient
/// baseline so the claim is measurable: see the solver-comparison tests
/// (oracles/gradient_solver_test.cc). The gradient in theta-space is
/// d(Psi)/d(theta_j) = s_j - E[<c_j, I>], evaluated with the same batched
/// derivative machinery the fast solver uses.
///
/// Zero-target variables are pinned to zero exactly as in MaxEntSolver.
class GradientMaxEntSolver {
 public:
  GradientMaxEntSolver(const VariableRegistry& reg,
                       const CompressedPolynomial& poly,
                       GradientSolverOptions opts = {})
      : reg_(reg), poly_(poly), opts_(opts) {}

  /// Runs gradient ascent until max_j |s_j - E_j| / n < tolerance or the
  /// iteration cap. Reuses SolverReport for comparability.
  Result<SolverReport> Solve(ModelState* state) const;

 private:
  /// Dual value Psi = sum_j s_j ln(alpha_j) - n ln(P), skipping pinned
  /// variables (their contribution is a constant -inf offset that never
  /// changes; the paper's overcomplete dual is defined on the support).
  double Dual(const ModelState& state, double p_value) const;

  const VariableRegistry& reg_;
  const CompressedPolynomial& poly_;
  GradientSolverOptions opts_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_TESTS_ORACLES_GRADIENT_SOLVER_H_
