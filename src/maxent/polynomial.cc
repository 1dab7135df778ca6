#include "maxent/polynomial.h"

#include <algorithm>
#include <numeric>

#include "common/thread_pool.h"

namespace entropydb {

namespace {

/// Union-find over attribute ids, used to split statistics into connected
/// components.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

}  // namespace

Status CompressedPolynomial::EnumerateGroups(const VariableRegistry& reg,
                                             Component* comp,
                                             size_t max_groups) {
  const size_t nattrs = comp->attrs.size();
  // Local attribute position lookup.
  std::unordered_map<AttrId, size_t> pos;
  for (size_t i = 0; i < nattrs; ++i) pos[comp->attrs[i]] = i;

  // Full-domain rectangle template.
  std::vector<Interval> full(nattrs);
  for (size_t i = 0; i < nattrs; ++i) {
    full[i] = Interval{0, reg.domain_size(comp->attrs[i]) - 1};
  }

  comp->stats_offset.push_back(0);

  // Applies stat `sid`'s ranges to `rect`; false when empty.
  auto intersect = [&](const MultiDimStatistic& s,
                       std::vector<Interval>* rect) {
    for (size_t i = 0; i < s.attrs.size(); ++i) {
      size_t p = pos.at(s.attrs[i]);
      (*rect)[p] = (*rect)[p].Intersect(s.ranges[i]);
      if ((*rect)[p].empty()) return false;
    }
    return true;
  };

  // Ordered DFS over compatible sets: each set S = {s_1 < s_2 < ...} is
  // reached exactly once, by inserting its members in increasing order.
  // Subsets of compatible sets are compatible, so pruning on an empty
  // intersection is exhaustive, not heuristic.
  std::vector<uint32_t> set_stack;
  std::vector<std::vector<Interval>> rect_stack;

  // Emits the current set as a group.
  auto emit = [&]() -> Status {
    if (comp->num_groups() >= max_groups) {
      return Status::ResourceExhausted(
          "compressed polynomial exceeds max_groups = " +
          std::to_string(max_groups) +
          "; reduce the statistic budget or raise the cap");
    }
    const auto& rect = rect_stack.back();
    comp->rects.insert(comp->rects.end(), rect.begin(), rect.end());
    comp->stats_flat.insert(comp->stats_flat.end(), set_stack.begin(),
                            set_stack.end());
    comp->stats_offset.push_back(
        static_cast<uint32_t>(comp->stats_flat.size()));
    uint32_t g = static_cast<uint32_t>(comp->num_groups() - 1);
    for (uint32_t sid : set_stack) {
      comp->stat_groups[delta_local_[sid]].push_back(g);
    }
    return Status::OK();
  };

  // Depth-first extension starting after local stat index `from`.
  // Implemented iteratively-recursively via an explicit lambda.
  struct Frame {
    size_t next;  // next local stat index to try
  };
  std::vector<Frame> frames;

  // Seed: empty set with full rectangle; do NOT emit (the base term is
  // handled separately by the evaluator).
  rect_stack.push_back(full);
  frames.push_back(Frame{0});

  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.next >= comp->stats.size()) {
      frames.pop_back();
      rect_stack.pop_back();
      if (!set_stack.empty()) set_stack.pop_back();
      continue;
    }
    size_t idx = f.next++;
    uint32_t sid = comp->stats[idx];
    std::vector<Interval> rect = rect_stack.back();
    if (!intersect(reg.multi_dim(sid), &rect)) continue;
    // Found a compatible extension: record it and descend.
    set_stack.push_back(sid);
    rect_stack.push_back(std::move(rect));
    RETURN_NOT_OK(emit());
    frames.push_back(Frame{idx + 1});
  }
  return Status::OK();
}

Result<CompressedPolynomial> CompressedPolynomial::Build(
    const VariableRegistry& reg, PolynomialOptions opts) {
  CompressedPolynomial poly;
  poly.domain_sizes_ = reg.domain_sizes();
  const size_t m = reg.num_attributes();
  const size_t k = reg.num_multi_dim();

  // 1. Connected components of the statistic/attribute graph.
  UnionFind uf(m);
  for (size_t j = 0; j < k; ++j) {
    const auto& s = reg.multi_dim(j);
    for (size_t i = 1; i < s.attrs.size(); ++i) {
      uf.Union(s.attrs[0], s.attrs[i]);
    }
  }
  // Attributes touched by at least one statistic.
  std::vector<bool> touched(m, false);
  for (size_t j = 0; j < k; ++j) {
    for (AttrId a : reg.multi_dim(j).attrs) touched[a] = true;
  }
  std::unordered_map<size_t, int> root_to_comp;
  poly.attr_component_.assign(m, -1);
  for (AttrId a = 0; a < m; ++a) {
    if (!touched[a]) {
      poly.free_attrs_.push_back(a);
      continue;
    }
    size_t root = uf.Find(a);
    auto it = root_to_comp.find(root);
    int c;
    if (it == root_to_comp.end()) {
      c = static_cast<int>(poly.components_.size());
      root_to_comp.emplace(root, c);
      poly.components_.emplace_back();
    } else {
      c = it->second;
    }
    poly.attr_component_[a] = c;
    poly.components_[c].attrs.push_back(a);
  }

  // 2. Assign statistics to components, recording each statistic's local
  // index up front (statistics are appended in increasing global id, so the
  // per-component lists are born sorted — no per-call binary search later).
  poly.delta_component_.assign(k, -1);
  poly.delta_local_.assign(k, 0);
  for (size_t j = 0; j < k; ++j) {
    int c = poly.attr_component_[reg.multi_dim(j).attrs[0]];
    poly.delta_component_[j] = c;
    poly.delta_local_[j] =
        static_cast<uint32_t>(poly.components_[c].stats.size());
    poly.components_[c].stats.push_back(static_cast<uint32_t>(j));
  }
  for (auto& comp : poly.components_) {
    std::sort(comp.attrs.begin(), comp.attrs.end());
    comp.stat_groups.resize(comp.stats.size());
  }

  // 3. Enumerate compatible statistic sets per component, respecting a
  // global budget.
  size_t remaining = opts.max_groups;
  for (auto& comp : poly.components_) {
    RETURN_NOT_OK(poly.EnumerateGroups(reg, &comp, remaining));
    remaining -= comp.num_groups();
  }

  // 4. Stab lists: per attribute position, the groups whose interval
  // contains each code, ascending (a counting sort over `rects`).
  for (auto& comp : poly.components_) {
    const size_t nattrs = comp.attrs.size();
    const size_t ng = comp.num_groups();
    comp.stab_offset.resize(nattrs);
    comp.stab_groups.resize(nattrs);
    for (size_t i = 0; i < nattrs; ++i) {
      std::vector<uint64_t>& off = comp.stab_offset[i];
      off.assign(size_t{poly.domain_sizes_[comp.attrs[i]]} + 1, 0);
      for (size_t g = 0; g < ng; ++g) {
        const Interval& iv = comp.rects[g * nattrs + i];
        for (Code v = iv.lo; v <= iv.hi; ++v) ++off[v + 1];
      }
      for (size_t v = 1; v < off.size(); ++v) off[v] += off[v - 1];
      std::vector<uint32_t>& groups = comp.stab_groups[i];
      groups.resize(off.back());
      std::vector<uint64_t> cursor(off.begin(), off.end() - 1);
      for (size_t g = 0; g < ng; ++g) {
        const Interval& iv = comp.rects[g * nattrs + i];
        for (Code v = iv.lo; v <= iv.hi; ++v) {
          groups[cursor[v]++] = static_cast<uint32_t>(g);
        }
      }
    }
  }

  // 5. Position lookups for derivative passes.
  poly.attr_local_.assign(m, 0);
  for (size_t c = 0; c < poly.components_.size(); ++c) {
    for (size_t i = 0; i < poly.components_[c].attrs.size(); ++i) {
      poly.attr_local_[poly.components_[c].attrs[i]] = i;
    }
  }
  poly.family_order_ = poly.free_attrs_;
  for (const auto& comp : poly.components_) {
    poly.family_order_.insert(poly.family_order_.end(), comp.attrs.begin(),
                              comp.attrs.end());
  }
  poly.num_groups_ = poly.NumGroups();
  poly.parallel_min_groups_ = opts.parallel_min_groups;
  return poly;
}

std::vector<double> CompressedPolynomial::ComponentDeltaProducts(
    int c, const ModelState& state) const {
  const Component& comp = components_[c];
  std::vector<double> dps(comp.num_groups());
  for (size_t g = 0; g < comp.num_groups(); ++g) {
    double dp = 1.0;
    for (uint32_t s = comp.stats_offset[g]; s < comp.stats_offset[g + 1];
         ++s) {
      dp *= state.delta[comp.stats_flat[s]] - 1.0;
      if (dp == 0.0) break;
    }
    dps[g] = dp;
  }
  return dps;
}

std::vector<double> CompressedPolynomial::FreeFamilyCofactorsAndRefresh(
    AttrId a, EvalContext* ctx) const {
  // Refreshes the free product and returns Rest = P / T_a for every value
  // (computed without division). Component attributes go through
  // ComponentSweep instead.
  double rest = 1.0;
  for (AttrId f : free_attrs_) {
    if (f != a) rest *= ctx->attr_total[f];
  }
  ctx->free_product = rest * ctx->attr_total[a];
  for (double v : ctx->comp_value) rest *= v;
  ctx->value = rest * ctx->attr_total[a];
  return std::vector<double>(domain_sizes_[a], rest);
}

void ComponentSweep::BeginSweep(const ModelState& state,
                                const CompressedPolynomial::EvalContext& ctx) {
  const auto& comp = poly_->components_[c_];
  const size_t nattrs = comp.attrs.size();
  const size_t ng = comp.num_groups();
  if (!factors_built_) {
    factors_.resize(ng * nattrs);
    for (size_t g = 0; g < ng; ++g) {
      const Interval* rect = &comp.rects[g * nattrs];
      double* f = factors_.data() + g * nattrs;
      for (size_t i = 0; i < nattrs; ++i) {
        f[i] = ctx.prefix[comp.attrs[i]].RangeSum(rect[i].lo, rect[i].hi);
      }
    }
    factors_built_ = true;
  }
  delta_prod_ = poly_->ComponentDeltaProducts(c_, state);
  suffix_.resize(ng * (nattrs + 1));
  prefix_run_.assign(ng, 1.0);
  for (size_t g = 0; g < ng; ++g) {
    const double* f = factors_.data() + g * nattrs;
    double* suf = suffix_.data() + g * (nattrs + 1);
    suf[nattrs] = 1.0;
    for (size_t i = nattrs; i-- > 0;) suf[i] = f[i] * suf[i + 1];
  }
}

std::vector<double> ComponentSweep::FamilyCofactors(
    AttrId a, CompressedPolynomial::EvalContext* ctx) {
  const auto& comp = poly_->components_[c_];
  const size_t nattrs = comp.attrs.size();
  const size_t pos = poly_->attr_local_[a];
  const uint32_t na = poly_->domain_sizes_[a];
  double outer = ctx->free_product;
  for (size_t cc = 0; cc < ctx->comp_value.size(); ++cc) {
    if (static_cast<int>(cc) != c_) outer *= ctx->comp_value[cc];
  }

  DiffArray diff(na);
  double base_others = 1.0;
  for (size_t i = 0; i < nattrs; ++i) {
    if (i != pos) base_others *= ctx->attr_total[comp.attrs[i]];
  }
  diff.RangeAdd(0, na - 1, base_others);
  double total = base_others * ctx->attr_total[a];
  const size_t stride = nattrs + 1;
  for (size_t g = 0; g < comp.num_groups(); ++g) {
    const double dp = delta_prod_[g];
    if (dp == 0.0) continue;
    // Columns < pos: updated this sweep, in the running prefix. Columns
    // > pos: untouched since BeginSweep, in the suffix. One multiply each.
    const double others = dp * prefix_run_[g] * suffix_[g * stride + pos + 1];
    if (others == 0.0) continue;
    const Interval& iv = comp.rects[g * nattrs + pos];
    diff.RangeAdd(iv.lo, iv.hi, others);
    total += others * factors_[g * nattrs + pos];
  }
  ctx->comp_value[c_] = total;
  ctx->value = outer * total;
  std::vector<double> out = diff.Finalize();
  for (double& v : out) v *= outer;
  return out;
}

void ComponentSweep::Advance(AttrId a, bool alphas_changed,
                             const CompressedPolynomial::EvalContext& ctx) {
  const auto& comp = poly_->components_[c_];
  const size_t nattrs = comp.attrs.size();
  const size_t pos = poly_->attr_local_[a];
  if (alphas_changed) {
    const PrefixSum& ps = ctx.prefix[a];
    for (size_t g = 0; g < comp.num_groups(); ++g) {
      const Interval& iv = comp.rects[g * nattrs + pos];
      const double f = ps.RangeSum(iv.lo, iv.hi);
      factors_[g * nattrs + pos] = f;
      prefix_run_[g] *= f;
    }
  } else {
    for (size_t g = 0; g < comp.num_groups(); ++g) {
      prefix_run_[g] *= factors_[g * nattrs + pos];
    }
  }
}

double ComponentSweep::ComponentValue(
    const CompressedPolynomial::EvalContext& ctx) const {
  const auto& comp = poly_->components_[c_];
  double base = 1.0;
  for (AttrId a : comp.attrs) base *= ctx.attr_total[a];
  double total = base;
  for (size_t g = 0; g < comp.num_groups(); ++g) {
    total += delta_prod_[g] * prefix_run_[g];
  }
  return total;
}

bool CompressedPolynomial::UseParallelComponents() const {
  return components_.size() >= 2 && num_groups_ >= parallel_min_groups_;
}

double CompressedPolynomial::ComponentValue(const Component& comp,
                                            const EvalContext& ctx,
                                            const ModelState& state) const {
  // Base term (S = {}) plus every compatible-set summand.
  double base = 1.0;
  for (AttrId a : comp.attrs) base *= ctx.attr_total[a];
  double total = base;
  for (size_t g = 0; g < comp.num_groups(); ++g) {
    total += GroupProduct(comp, g, ctx, state, SIZE_MAX, UINT32_MAX);
  }
  return total;
}

CompressedPolynomial::EvalContext CompressedPolynomial::EvaluateUnmasked(
    const ModelState& state) const {
  EvalContext ctx;
  const size_t m = domain_sizes_.size();
  ctx.prefix.resize(m);
  ctx.attr_total.resize(m);

  // Per-attribute prefix sums; the only O(N_i) work per evaluation.
  for (AttrId a = 0; a < m; ++a) {
    ctx.prefix[a].Build(state.alpha[a]);
    ctx.attr_total[a] = ctx.prefix[a].Total();
  }

  ctx.free_product = 1.0;
  for (AttrId a : free_attrs_) ctx.free_product *= ctx.attr_total[a];

  ctx.comp_value.resize(components_.size());
  if (UseParallelComponents()) {
    ParallelFor(components_.size(), 2, [&](size_t c) {
      ctx.comp_value[c] = ComponentValue(components_[c], ctx, state);
    });
  } else {
    for (size_t c = 0; c < components_.size(); ++c) {
      ctx.comp_value[c] = ComponentValue(components_[c], ctx, state);
    }
  }

  ctx.value = ctx.free_product;
  for (double v : ctx.comp_value) ctx.value *= v;
  return ctx;
}

double CompressedPolynomial::GroupProduct(const Component& comp, size_t g,
                                          const EvalContext& ctx,
                                          const ModelState& state,
                                          size_t skip_pos,
                                          uint32_t skip_stat) const {
  double prod = 1.0;
  // Delta factors first: cheaper per factor, and frequently exactly zero
  // (pinned zero-target deltas, neutral delta = 1), so the short-circuit
  // usually fires before any prefix-sum lookups happen.
  for (uint32_t s = comp.stats_offset[g]; s < comp.stats_offset[g + 1]; ++s) {
    uint32_t sid = comp.stats_flat[s];
    if (sid == skip_stat) continue;
    prod *= state.delta[sid] - 1.0;
    if (prod == 0.0) return 0.0;
  }
  const size_t nattrs = comp.attrs.size();
  const Interval* rect = &comp.rects[g * nattrs];
  for (size_t i = 0; i < nattrs; ++i) {
    if (i == skip_pos) continue;
    prod *= ctx.prefix[comp.attrs[i]].RangeSum(rect[i].lo, rect[i].hi);
    if (prod == 0.0) return 0.0;
  }
  return prod;
}

CompressedPolynomial::DerivativeSet CompressedPolynomial::AllDerivatives(
    const ModelState& state, const EvalContext& ctx) const {
  const size_t m = domain_sizes_.size();
  const size_t k = delta_component_.size();
  DerivativeSet out;
  out.alpha.resize(m);
  out.delta.assign(k, 0.0);
  out.delta_local.assign(k, 0.0);

  // Free attributes: dP/dalpha_{a,v} = (prod of the other free totals) *
  // (prod of component values), identical for every v. Prefix/suffix
  // products over the free totals give all of them in one pass.
  if (!free_attrs_.empty()) {
    double comp_prod = 1.0;
    for (double v : ctx.comp_value) comp_prod *= v;
    const size_t nf = free_attrs_.size();
    std::vector<double> pre(nf + 1, 1.0);
    for (size_t i = 0; i < nf; ++i) {
      pre[i + 1] = pre[i] * ctx.attr_total[free_attrs_[i]];
    }
    double suffix = 1.0;
    for (size_t i = nf; i-- > 0;) {
      const double rest = pre[i] * suffix * comp_prod;
      out.alpha[free_attrs_[i]].assign(domain_sizes_[free_attrs_[i]], rest);
      suffix *= ctx.attr_total[free_attrs_[i]];
    }
  }

  // Components: ONE sweep over each component's groups yields the cofactor
  // of every factor — interval and delta alike — via running prefix
  // products and a running suffix product (no division, so zeros are
  // exact). Each component writes only its own attributes and statistics,
  // so the fan-out below is race-free and deterministic.
  auto sweep_component = [&](size_t ci) {
    const Component& comp = components_[ci];
    const size_t nattrs = comp.attrs.size();
    const double outer = OuterProduct(ctx, static_cast<int>(ci));

    std::vector<DiffArray> diffs;
    diffs.reserve(nattrs);
    for (AttrId a : comp.attrs) diffs.emplace_back(domain_sizes_[a]);

    // Base term: cofactor of attr position i = prod of the other totals.
    {
      std::vector<double> pre(nattrs + 1, 1.0);
      for (size_t i = 0; i < nattrs; ++i) {
        pre[i + 1] = pre[i] * ctx.attr_total[comp.attrs[i]];
      }
      double suffix = 1.0;
      for (size_t i = nattrs; i-- > 0;) {
        diffs[i].RangeAdd(0, domain_sizes_[comp.attrs[i]] - 1,
                          pre[i] * suffix);
        suffix *= ctx.attr_total[comp.attrs[i]];
      }
    }

    std::vector<double> factors;
    std::vector<double> pre;
    for (size_t g = 0; g < comp.num_groups(); ++g) {
      const Interval* rect = &comp.rects[g * nattrs];
      const uint32_t s_begin = comp.stats_offset[g];
      const uint32_t s_end = comp.stats_offset[g + 1];
      const size_t width = nattrs + (s_end - s_begin);
      factors.resize(width);
      pre.resize(width + 1);
      size_t num_zero = 0;
      size_t zero_pos = 0;
      double nonzero_prod = 1.0;
      for (size_t i = 0; i < nattrs; ++i) {
        const double f =
            ctx.prefix[comp.attrs[i]].RangeSum(rect[i].lo, rect[i].hi);
        factors[i] = f;
        if (f == 0.0) {
          ++num_zero;
          zero_pos = i;
        } else {
          nonzero_prod *= f;
        }
      }
      for (uint32_t s = s_begin; s < s_end && num_zero < 2; ++s) {
        const double f = state.delta[comp.stats_flat[s]] - 1.0;
        factors[nattrs + (s - s_begin)] = f;
        if (f == 0.0) {
          ++num_zero;
          zero_pos = nattrs + (s - s_begin);
        } else {
          nonzero_prod *= f;
        }
      }
      // Two zero factors kill every cofactor of the group; one zero factor
      // leaves only its own cofactor alive (the product of the others).
      if (num_zero >= 2) continue;
      if (num_zero == 1) {
        if (zero_pos < nattrs) {
          diffs[zero_pos].RangeAdd(rect[zero_pos].lo, rect[zero_pos].hi,
                                   nonzero_prod);
        } else {
          out.delta_local[comp.stats_flat[s_begin + (zero_pos - nattrs)]] +=
              nonzero_prod;
        }
        continue;
      }
      pre[0] = 1.0;
      for (size_t i = 0; i < width; ++i) pre[i + 1] = pre[i] * factors[i];
      double suffix = 1.0;
      for (size_t i = width; i-- > 0;) {
        const double cof = pre[i] * suffix;
        if (i < nattrs) {
          diffs[i].RangeAdd(rect[i].lo, rect[i].hi, cof);
        } else {
          out.delta_local[comp.stats_flat[s_begin + (i - nattrs)]] += cof;
        }
        suffix *= factors[i];
      }
    }

    for (size_t i = 0; i < nattrs; ++i) {
      std::vector<double> derivs = diffs[i].Finalize();
      for (double& v : derivs) v *= outer;
      out.alpha[comp.attrs[i]] = std::move(derivs);
    }
  };

  if (UseParallelComponents()) {
    ParallelFor(components_.size(), 2, sweep_component);
  } else {
    for (size_t c = 0; c < components_.size(); ++c) sweep_component(c);
  }

  for (uint32_t j = 0; j < k; ++j) {
    out.delta[j] = OuterProduct(ctx, delta_component_[j]) * out.delta_local[j];
  }
  return out;
}

double CompressedPolynomial::DeltaDerivativeLocalCached(
    const ModelState& state, const std::vector<double>& rs_prod,
    uint32_t j) const {
  const int c = delta_component_[j];
  const Component& comp = components_[c];
  const std::vector<double>& rs = rs_prod;
  double sum = 0.0;
  for (uint32_t g : comp.stat_groups[delta_local_[j]]) {
    double prod = rs[g];
    if (prod == 0.0) continue;
    for (uint32_t s = comp.stats_offset[g]; s < comp.stats_offset[g + 1];
         ++s) {
      const uint32_t sid = comp.stats_flat[s];
      if (sid == j) continue;
      prod *= state.delta[sid] - 1.0;
      if (prod == 0.0) break;
    }
    sum += prod;
  }
  return sum;
}

double CompressedPolynomial::OuterProduct(const EvalContext& ctx,
                                          int comp) const {
  double prod = ctx.free_product;
  for (size_t c = 0; c < ctx.comp_value.size(); ++c) {
    if (static_cast<int>(c) != comp) prod *= ctx.comp_value[c];
  }
  return prod;
}

// ---------------------------------------------------------------------
// Query-facing evaluation.
// ---------------------------------------------------------------------

double CompressedPolynomial::MaskedRangeSum(const EvalWorkspace& ws, AttrId a,
                                            const Interval& iv) {
  const Code v = ws.pin_[a];
  if (v != kNoPin) return iv.Contains(v) ? ws.eff_total_[a] : 0.0;
  return ws.masked_prefix_[a].RangeSum(iv.lo, iv.hi);
}

template <typename PinFn, typename VisitFn>
void CompressedPolynomial::ForEachReachableGroup(const Component& comp,
                                                 size_t skip_pos,
                                                 const PinFn& pin,
                                                 const VisitFn& visit) {
  bool pinned = false;
  const uint32_t* list = nullptr;
  uint64_t len = 0;
  for (size_t i = 0; i < comp.attrs.size(); ++i) {
    if (i == skip_pos) continue;
    const Code v = pin(i);
    if (v == kNoPin) continue;
    const uint64_t* off = comp.stab_offset[i].data();
    if (!pinned || off[v + 1] - off[v] < len) {
      pinned = true;
      list = comp.stab_groups[i].data() + off[v];
      len = off[v + 1] - off[v];
    }
  }
  if (!pinned) {
    for (size_t g = 0; g < comp.num_groups(); ++g) visit(g);
    return;
  }
  for (uint64_t k = 0; k < len; ++k) visit(list[k]);
}

const CompressedPolynomial::EvalContext& CompressedPolynomial::PrepareWorkspace(
    const ModelState& state, EvalWorkspace* ws) const {
  const size_t m = domain_sizes_.size();
  if (ws->cache_ == nullptr) {
    // Build the shared immutable half. This is the only O(all groups)
    // warm-up; workspaces that ShareCacheWith a warmed one skip it.
    auto cache = std::make_shared<EvalWorkspace::FactorCache>();
    cache->unmasked = EvaluateUnmasked(state);

    cache->rs_factor.resize(components_.size());
    cache->skip_cof.resize(components_.size());
    cache->delta_prod.resize(components_.size());
    std::vector<double> pre;
    for (size_t c = 0; c < components_.size(); ++c) {
      const Component& comp = components_[c];
      const size_t nattrs = comp.attrs.size();
      cache->rs_factor[c].resize(comp.num_groups() * nattrs);
      cache->skip_cof[c].resize(comp.num_groups() * nattrs);
      cache->delta_prod[c] = ComponentDeltaProducts(static_cast<int>(c), state);
      pre.resize(nattrs + 1);
      for (size_t g = 0; g < comp.num_groups(); ++g) {
        const Interval* rect = &comp.rects[g * nattrs];
        double* factors = &cache->rs_factor[c][g * nattrs];
        for (size_t i = 0; i < nattrs; ++i) {
          factors[i] = cache->unmasked.prefix[comp.attrs[i]].RangeSum(
              rect[i].lo, rect[i].hi);
        }
        // Skip-position cofactors (delta product folded in) via a
        // prefix/suffix pass — division-free, so zero factors are exact.
        double* cof = &cache->skip_cof[c][g * nattrs];
        pre[0] = cache->delta_prod[c][g];
        for (size_t i = 0; i < nattrs; ++i) pre[i + 1] = pre[i] * factors[i];
        double suffix = 1.0;
        for (size_t i = nattrs; i-- > 0;) {
          cof[i] = pre[i] * suffix;
          suffix *= factors[i];
        }
      }
    }
    ws->cache_ = std::move(cache);
  }

  if (!ws->scratch_ready_) {
    ws->pred_.assign(m, AttrPredicate::Any());
    ws->attr_masked_.assign(m, 0);
    ws->pin_.assign(m, kNoPin);
    ws->masked_prefix_.resize(m);
    ws->eff_total_ = ws->cache_->unmasked.attr_total;
    ws->comp_value_ = ws->cache_->unmasked.comp_value;
    ws->scratch_ready_ = true;
  }
  return ws->cache_->unmasked;
}

CompressedPolynomial::MaskedEval CompressedPolynomial::MaskedEvaluate(
    const ModelState& state, const CountingQuery& q, EvalWorkspace* ws,
    bool reuse_residue) const {
  PrepareWorkspace(state, ws);
  const EvalWorkspace::FactorCache& fc = *ws->cache_;

  // Rebuild each attribute (with reuse: each whose predicate differs from
  // the residue's), and mark its component for a re-walk.
  std::vector<uint8_t>& comp_changed = ws->comp_scratch_;
  comp_changed.assign(components_.size(), 0);
  bool constrained = false;
  const size_t m = domain_sizes_.size();
  for (AttrId a = 0; a < m; ++a) {
    const AttrPredicate& pred = q.predicate(a);
    if (!reuse_residue || !(pred == ws->pred_[a])) {
      ws->pred_[a] = pred;
      if (attr_component_[a] >= 0) comp_changed[attr_component_[a]] = 1;
      const auto& alpha = state.alpha[a];
      ws->attr_masked_[a] = pred.is_any() ? 0 : 1;
      ws->pin_[a] = kNoPin;
      if (pred.is_any()) {
        ws->eff_total_[a] = fc.unmasked.attr_total[a];
      } else if (pred.Selectivity(alpha.size()) == 1) {
        // One allowed code (the sole set member or the range's low end):
        // its factors are point lookups (MaskedRangeSum).
        const Code v = pred.kind() == AttrPredicate::Kind::kSet
                           ? pred.set().front()
                           : pred.lo();
        ws->pin_[a] = v;
        ws->eff_total_[a] = alpha[v];
      } else {
        ws->buf_.assign(alpha.size(), 0.0);
        for (Code v = 0; v < alpha.size(); ++v) {
          if (pred.Matches(v)) ws->buf_[v] = alpha[v];
        }
        ws->masked_prefix_[a].Build(ws->buf_);
        ws->eff_total_[a] = ws->masked_prefix_[a].Total();
      }
    }
    constrained |= ws->attr_masked_[a] != 0;
  }

  // Re-walk each changed component; the others keep the residue's value.
  for (size_t c = 0; c < components_.size(); ++c) {
    if (!comp_changed[c]) continue;
    const Component& comp = components_[c];
    const size_t nattrs = comp.attrs.size();
    double base = 1.0;
    size_t num_masked = 0;
    size_t masked_pos = 0;
    for (size_t i = 0; i < nattrs; ++i) {
      base *= ws->eff_total_[comp.attrs[i]];
      if (ws->attr_masked_[comp.attrs[i]]) {
        ++num_masked;
        masked_pos = i;
      }
    }
    if (num_masked == 0) {
      ws->comp_value_[c] = fc.unmasked.comp_value[c];
      continue;
    }
    const auto pin = [&](size_t i) { return ws->pin_[comp.attrs[i]]; };
    double total = base;
    if (num_masked == 1) {
      // One constrained attribute: every other factor of every group is
      // pre-multiplied into the cached skip-position cofactor, so each
      // group is one multiply-add.
      const AttrId am = comp.attrs[masked_pos];
      const double* cof = fc.skip_cof[c].data();
      ForEachReachableGroup(comp, SIZE_MAX, pin, [&](size_t g) {
        const double sc = cof[g * nattrs + masked_pos];
        if (sc == 0.0) return;
        total += sc * MaskedRangeSum(*ws, am,
                                     comp.rects[g * nattrs + masked_pos]);
      });
    } else {
      const std::vector<double>& dps = fc.delta_prod[c];
      const double* factors = fc.rs_factor[c].data();
      ForEachReachableGroup(comp, SIZE_MAX, pin, [&](size_t g) {
        double prod = dps[g];
        if (prod == 0.0) return;
        const Interval* rect = &comp.rects[g * nattrs];
        for (size_t i = 0; i < nattrs; ++i) {
          const AttrId a = comp.attrs[i];
          prod *= ws->attr_masked_[a] ? MaskedRangeSum(*ws, a, rect[i])
                                      : factors[g * nattrs + i];
          if (prod == 0.0) break;
        }
        total += prod;
      });
    }
    ws->comp_value_[c] = total;
  }

  MaskedEval out;
  if (!constrained) {
    out.value = fc.unmasked.value;
    out.free_product = fc.unmasked.free_product;
    return out;
  }
  out.free_product = 1.0;
  for (AttrId f : free_attrs_) out.free_product *= ws->eff_total_[f];
  out.value = out.free_product;
  for (double v : ws->comp_value_) out.value *= v;
  return out;
}

std::vector<double> CompressedPolynomial::MaskedAlphaDerivatives(
    const ModelState& state, const MaskedEval& eval, AttrId a,
    EvalWorkspace* ws) const {
  (void)state;
  const EvalWorkspace::FactorCache& fc = *ws->cache_;
  const uint32_t na = domain_sizes_[a];
  const int c = attr_component_[a];

  if (c < 0) {
    double rest = 1.0;
    for (AttrId f : free_attrs_) {
      if (f != a) rest *= ws->eff_total_[f];
    }
    for (double v : ws->comp_value_) rest *= v;
    return std::vector<double>(na, rest);
  }

  const Component& comp = components_[c];
  const size_t pos = attr_local_[a];
  const size_t nattrs = comp.attrs.size();
  double outer = eval.free_product;
  for (size_t cc = 0; cc < ws->comp_value_.size(); ++cc) {
    if (static_cast<int>(cc) != c) outer *= ws->comp_value_[cc];
  }

  DiffArray diff(na);
  double base = 1.0;
  bool others_masked = false;
  for (size_t i = 0; i < nattrs; ++i) {
    if (i == pos) continue;
    base *= ws->eff_total_[comp.attrs[i]];
    others_masked |= ws->attr_masked_[comp.attrs[i]] != 0;
  }
  diff.RangeAdd(0, na - 1, base);
  if (!others_masked) {
    // No other attribute of this component is constrained: the cached
    // skip-position cofactors ARE the group cofactors.
    const double* cof = fc.skip_cof[c].data();
    for (size_t g = 0; g < comp.num_groups(); ++g) {
      const double sc = cof[g * nattrs + pos];
      if (sc == 0.0) continue;
      const Interval& iv = comp.rects[g * nattrs + pos];
      diff.RangeAdd(iv.lo, iv.hi, sc);
    }
  } else {
    const std::vector<double>& dps = fc.delta_prod[c];
    const double* factors = fc.rs_factor[c].data();
    const auto pin = [&](size_t i) { return ws->pin_[comp.attrs[i]]; };
    ForEachReachableGroup(comp, pos, pin, [&](size_t g) {
      double cof = dps[g];
      if (cof == 0.0) return;
      const Interval* rect = &comp.rects[g * nattrs];
      for (size_t i = 0; i < nattrs; ++i) {
        if (i == pos) continue;
        const AttrId ai = comp.attrs[i];
        cof *= ws->attr_masked_[ai] ? MaskedRangeSum(*ws, ai, rect[i])
                                    : factors[g * nattrs + i];
        if (cof == 0.0) break;
      }
      if (cof != 0.0) diff.RangeAdd(rect[pos].lo, rect[pos].hi, cof);
    });
  }
  std::vector<double> out = diff.Finalize();
  for (double& v : out) v *= outer;
  return out;
}

size_t CompressedPolynomial::NumGroups() const {
  size_t total = 0;
  for (const auto& comp : components_) total += comp.num_groups();
  return total;
}

size_t CompressedPolynomial::CompressedSize() const {
  size_t total = free_attrs_.size();
  for (const auto& comp : components_) {
    total += comp.attrs.size();  // base term factors
    total += comp.rects.size() + comp.stats_flat.size();
  }
  return total;
}

double CompressedPolynomial::UncompressedTermCount() const {
  double d = 1.0;
  for (uint32_t n : domain_sizes_) d *= n;
  return d;
}

size_t CompressedPolynomial::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& comp : components_) {
    bytes += comp.rects.size() * sizeof(Interval);
    bytes += comp.stats_flat.size() * sizeof(uint32_t);
    bytes += comp.stats_offset.size() * sizeof(uint32_t);
    for (const auto& v : comp.stat_groups) bytes += v.size() * sizeof(uint32_t);
    for (const auto& v : comp.stab_offset) bytes += v.size() * sizeof(uint64_t);
    for (const auto& v : comp.stab_groups) bytes += v.size() * sizeof(uint32_t);
  }
  bytes += delta_local_.size() * sizeof(uint32_t);
  bytes += attr_local_.size() * sizeof(size_t);
  return bytes;
}

size_t CompressedPolynomial::MaxSetSize() const {
  size_t best = 0;
  for (const auto& comp : components_) {
    for (size_t g = 0; g < comp.num_groups(); ++g) {
      best = std::max<size_t>(
          best, comp.stats_offset[g + 1] - comp.stats_offset[g]);
    }
  }
  return best;
}

}  // namespace entropydb
