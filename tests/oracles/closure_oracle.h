#ifndef ENTROPYDB_TESTS_ORACLES_CLOSURE_ORACLE_H_
#define ENTROPYDB_TESTS_ORACLES_CLOSURE_ORACLE_H_

#include <vector>

#include "maxent/mask.h"
#include "maxent/polynomial.h"
#include "maxent/variable_registry.h"

namespace entropydb {

/// \brief Reference evaluators over a CompressedPolynomial's closure: one
/// variable (or one masked value) at a time, each a direct walk of the
/// groups with no cache and no fused sweep.
///
/// The production class answers queries through an EvalWorkspace and fits
/// models through AllDerivatives and ComponentSweep. These are the simple
/// forms those fast paths are checked against, beside the tuple-enumerating
/// DenseMaxEntModel; unlike it, they scale to any polynomial the closure
/// can hold. A friend of CompressedPolynomial, the oracle reads the
/// components' fields and calls its private GroupProduct.
class ClosureOracle {
 public:
  using EvalContext = CompressedPolynomial::EvalContext;

  /// `poly` must outlive the oracle.
  explicit ClosureOracle(const CompressedPolynomial& poly) : poly_(poly) {}

  /// P with the 1-D variables the mask excludes zeroed (Sec 4.2):
  /// EvaluateUnmasked on a copy of `state` whose excluded alphas are zero.
  EvalContext Evaluate(const ModelState& state, const QueryMask& mask) const;

  /// dP/dalpha_{a,v} for every v of attribute `a`, in one batched pass over
  /// the groups (difference-array trick). `ctx` must come from `state`, or
  /// from Evaluate of `state` under a mask. Because P is linear in the
  /// whole alpha family of an attribute (overcompleteness, Eq 7), the
  /// result does not depend on that family's current values.
  std::vector<double> AlphaDerivatives(const ModelState& state,
                                       const EvalContext& ctx,
                                       AttrId a) const;

  /// dP/ddelta_j for one multi-dimensional statistic.
  double DeltaDerivative(const ModelState& state, const EvalContext& ctx,
                         uint32_t j) const;

  /// dP_c/ddelta_j restricted to j's component (no outer factors).
  double DeltaDerivativeLocal(const ModelState& state, const EvalContext& ctx,
                              uint32_t j) const;

  /// Per component, per group: the product of the group's interval factors
  /// only (no delta factors) under `ctx` — what ComponentSweep's running
  /// prefix must equal once every family has advanced.
  std::vector<std::vector<double>> GroupRangeSumProducts(
      const EvalContext& ctx) const;

 private:
  const CompressedPolynomial& poly_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_TESTS_ORACLES_CLOSURE_ORACLE_H_
