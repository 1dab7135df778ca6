#ifndef ENTROPYDB_TESTS_ORACLES_DENSE_MODEL_H_
#define ENTROPYDB_TESTS_ORACLES_DENSE_MODEL_H_

#include <vector>

#include "common/result.h"
#include "maxent/variable_registry.h"
#include "oracles/tuple_space.h"
#include "query/counting_query.h"

namespace entropydb {

/// Minimal report for the naive dense solver (kept distinct from
/// SolverReport to avoid a dependency on solver.h).
struct DenseSolveReport {
  size_t iterations = 0;
  double final_error = 0.0;
  bool converged = false;
};

/// \brief Reference implementation of the MaxEnt polynomial that explicitly
/// enumerates the tuple space Tup (Eq 5 in its naive sum-of-products form).
///
/// Exponential in the schema width — strictly a correctness oracle for unit
/// and property tests of the compressed representation, the solver, and the
/// optimized query answering path, which is why it lives under tests/.
class DenseMaxEntModel {
 public:
  /// Fails when |Tup| exceeds `max_tuples` (default 2^22).
  static Result<DenseMaxEntModel> Create(const VariableRegistry& reg,
                                         uint64_t max_tuples = 1ULL << 22);

  /// P evaluated by full enumeration over the tuples `q` matches.
  double Evaluate(const ModelState& state, const CountingQuery& q) const;

  double EvaluateUnmasked(const ModelState& state) const {
    return Evaluate(state, CountingQuery(reg_->num_attributes()));
  }

  /// dP/dalpha_{a,v} by enumeration (cofactor sum).
  double AlphaDerivative(const ModelState& state, AttrId a, Code v) const;

  /// dP/ddelta_j by enumeration.
  double DeltaDerivative(const ModelState& state, uint32_t j) const;

  /// E[<q,I>] = n * P[mask]/P for a counting query, by enumeration.
  double CountEstimate(const ModelState& state, const CountingQuery& q) const;

  /// Naive coordinate solver (Algorithm 1 with dense derivatives); used to
  /// cross-check the optimized solver on small instances.
  DenseSolveReport SolveNaive(ModelState* state, size_t max_iterations = 200,
                              double tolerance = 1e-9) const;

  /// Model probability of a single tuple.
  double TupleProbability(const ModelState& state,
                          const std::vector<Code>& tuple) const;

  const TupleSpace& space() const { return space_; }

 private:
  explicit DenseMaxEntModel(const VariableRegistry& reg)
      : reg_(&reg), space_(reg.domain_sizes()) {}

  /// Monomial weight of the encoded tuple (product of its alpha and delta
  /// variables), optionally skipping one variable to obtain a cofactor:
  /// `skip_attr` >= 0 omits that attribute's alpha factor; `skip_stat` >= 0
  /// omits that statistic's delta factor.
  double Weight(const ModelState& state, const std::vector<Code>& tuple,
                int skip_attr, int skip_stat) const;

  const VariableRegistry* reg_;
  TupleSpace space_;
};

}  // namespace entropydb

#endif  // ENTROPYDB_TESTS_ORACLES_DENSE_MODEL_H_
