#include "oracles/closure_oracle.h"

namespace entropydb {

ClosureOracle::EvalContext ClosureOracle::Evaluate(
    const ModelState& state, const QueryMask& mask) const {
  ModelState zeroed = state;
  for (AttrId a = 0; a < zeroed.alpha.size(); ++a) {
    if (mask.IsAny(a)) continue;
    for (Code v = 0; v < zeroed.alpha[a].size(); ++v) {
      if (!mask.Allows(a, v)) zeroed.alpha[a][v] = 0.0;
    }
  }
  return poly_.EvaluateUnmasked(zeroed);
}

std::vector<double> ClosureOracle::AlphaDerivatives(const ModelState& state,
                                                    const EvalContext& ctx,
                                                    AttrId a) const {
  const uint32_t na = poly_.domain_sizes_[a];
  const int c = poly_.attr_component_[a];

  if (c < 0) {
    // Free attribute: P = T_a * Rest, so dP/dalpha_{a,v} = Rest for all v.
    double rest = 1.0;
    for (AttrId f : poly_.free_attrs_) {
      if (f != a) rest *= ctx.attr_total[f];
    }
    for (double v : ctx.comp_value) rest *= v;
    return std::vector<double>(na, rest);
  }

  const CompressedPolynomial::Component& comp = poly_.components_[c];
  const size_t pos = poly_.attr_local_[a];
  const size_t nattrs = comp.attrs.size();
  const double outer = poly_.OuterProduct(ctx, c);

  DiffArray diff(na);
  // Base term contributes prod of the other attributes' totals to every v.
  double base = 1.0;
  for (size_t i = 0; i < nattrs; ++i) {
    if (i != pos) base *= ctx.attr_total[comp.attrs[i]];
  }
  diff.RangeAdd(0, na - 1, base);
  // Each group contributes its cofactor on the group's interval of `a`.
  for (size_t g = 0; g < comp.num_groups(); ++g) {
    const Interval& iv = comp.rects[g * nattrs + pos];
    double cof = poly_.GroupProduct(comp, g, ctx, state, pos, UINT32_MAX);
    if (cof != 0.0) diff.RangeAdd(iv.lo, iv.hi, cof);
  }
  std::vector<double> out = diff.Finalize();
  for (double& v : out) v *= outer;
  return out;
}

double ClosureOracle::DeltaDerivativeLocal(const ModelState& state,
                                           const EvalContext& ctx,
                                           uint32_t j) const {
  const int c = poly_.delta_component_[j];
  const CompressedPolynomial::Component& comp = poly_.components_[c];
  double sum = 0.0;
  for (uint32_t g : comp.stat_groups[poly_.delta_local_[j]]) {
    sum += poly_.GroupProduct(comp, g, ctx, state, SIZE_MAX, j);
  }
  return sum;
}

double ClosureOracle::DeltaDerivative(const ModelState& state,
                                      const EvalContext& ctx,
                                      uint32_t j) const {
  return poly_.OuterProduct(ctx, poly_.delta_component_[j]) *
         DeltaDerivativeLocal(state, ctx, j);
}

std::vector<std::vector<double>> ClosureOracle::GroupRangeSumProducts(
    const EvalContext& ctx) const {
  std::vector<std::vector<double>> rs(poly_.components_.size());
  for (size_t c = 0; c < poly_.components_.size(); ++c) {
    const CompressedPolynomial::Component& comp = poly_.components_[c];
    const size_t nattrs = comp.attrs.size();
    rs[c].resize(comp.num_groups());
    for (size_t g = 0; g < comp.num_groups(); ++g) {
      const Interval* rect = &comp.rects[g * nattrs];
      double prod = 1.0;
      for (size_t i = 0; i < nattrs; ++i) {
        prod *= ctx.prefix[comp.attrs[i]].RangeSum(rect[i].lo, rect[i].hi);
        if (prod == 0.0) break;
      }
      rs[c][g] = prod;
    }
  }
  return rs;
}

}  // namespace entropydb
