#ifndef ENTROPYDB_MAXENT_POLYNOMIAL_H_
#define ENTROPYDB_MAXENT_POLYNOMIAL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/prefix_sum.h"
#include "common/result.h"
#include "maxent/variable_registry.h"
#include "query/counting_query.h"

namespace entropydb {

class EvalWorkspace;

/// Knobs for polynomial construction.
struct PolynomialOptions {
  /// Hard cap on the number of compressed groups; Build fails with
  /// ResourceExhausted beyond it (the paper's compression degrades past the
  /// point where gathering "all possible multi-dimensional statistics" makes
  /// the compressed form larger than the SOP polynomial, Sec 4.1).
  size_t max_groups = 4'000'000;
  /// Spread evaluation / derivative sweeps across connected components on
  /// the shared thread pool once the group count reaches this threshold.
  /// Components are independent factors, so the fan-out is deterministic.
  /// SIZE_MAX disables parallelism.
  size_t parallel_min_groups = 16'384;
};

/// \brief The compressed MaxEnt polynomial P of Theorem 4.1.
///
/// Internally stores the flattened form obtained by substituting
/// delta_j = 1 + d_j for every multi-dimensional variable:
///
///   P = prod_{free i} T_i * prod_{components c} P_c
///   P_c = sum over compatible stat sets S (incl. the empty set) of
///         prod_{i in attrs(c)} IntervalSum_i(rect(S)) * prod_{j in S} d_j
///
/// where T_i = sum_v alpha_{i,v} and IntervalSum is taken over the
/// intersection rectangle of S (full domain on unconstrained attributes).
/// Compatible = non-empty rectangle intersection; by 1-D Helly it suffices
/// to check intervals pairwise, and compatible sets are enumerated exactly
/// once by ordered DFS. Attributes not mentioned by any multi-dimensional
/// statistic stay fully factorized ("free"), and statistics on disconnected
/// attribute groups never cross-multiply — this connected-component
/// factorization is what keeps the group count near
/// O(B_a * R * sum_i N_i) (Theorem 4.2).
///
/// The polynomial is multilinear: every variable (1-D alpha or
/// multi-dimensional delta) has degree one, which the solver exploits.
///
/// The class serves two callers (see docs/PERFORMANCE.md):
///  - the solver: full unmasked evaluations into an EvalContext, every
///    derivative in one sweep, and the fused Gauss-Seidel support that
///    ComponentSweep drives; and
///  - the query answerer: masked evaluations against an EvalWorkspace's
///    cached unmasked factors, touching only what the query constrains.
/// The per-variable reference evaluators the tests check both against
/// live in tests/oracles/closure_oracle.h.
class ComponentSweep;

class CompressedPolynomial {
 public:
  /// \brief Everything produced by one evaluation pass: P itself plus the
  /// factor caches the derivative and solver paths reuse.
  struct EvalContext {
    /// Per attribute: prefix sums of alpha values.
    std::vector<PrefixSum> prefix;
    /// Per attribute: T_i.
    std::vector<double> attr_total;
    /// Per component: P_c.
    std::vector<double> comp_value;
    /// Product of T_i over free attributes.
    double free_product = 1.0;
    /// P (the full product).
    double value = 0.0;
  };

  /// \brief Every first-order derivative of P at once, produced by a single
  /// prefix/suffix-cofactor sweep over the groups (AllDerivatives).
  struct DerivativeSet {
    /// alpha[a][v] = dP/dalpha_{a,v}.
    std::vector<std::vector<double>> alpha;
    /// delta[j] = dP/ddelta_j.
    std::vector<double> delta;
    /// delta_local[j] = dP_c/ddelta_j restricted to j's component.
    std::vector<double> delta_local;
  };

  /// \brief Compact result of an incremental masked evaluation. Unlike
  /// EvalContext it carries no prefix sums or component values — those stay
  /// inside the EvalWorkspace, so producing one is O(constrained domains +
  /// groups of the touched components) instead of O(sum_i N_i + all groups).
  struct MaskedEval {
    double value = 0.0;
    /// Product of effective totals over free attributes.
    double free_product = 1.0;
  };

  // ------------------------------------------------------------------
  // Solver-facing: full evaluation, all derivatives, and the fused
  // Gauss-Seidel sweep (with ComponentSweep).
  // ------------------------------------------------------------------

  /// Evaluates P with no mask. O(sum_i N_i + total group factors).
  EvalContext EvaluateUnmasked(const ModelState& state) const;

  /// \brief All alpha and delta derivatives in ONE sweep over the groups.
  ///
  /// Each group's factor list (interval factors, then delta factors) is
  /// walked once with running prefix products and a running suffix product;
  /// the cofactor of factor i is prefix[i] * suffix[i+1], with no division,
  /// so zero factors are exact. Total cost O(sum_g width_g + sum_i N_i) —
  /// one group walk for every variable of every attribute. Used by the
  /// convergence metric and the gradient-solver baseline.
  DerivativeSet AllDerivatives(const ModelState& state,
                               const EvalContext& ctx) const;

  /// Attribute order that groups families by connected component (free
  /// attributes first). Sweeping in this order lets consecutive families
  /// share the fused refresh below without cross-component fixups.
  const std::vector<AttrId>& FamilyOrder() const { return family_order_; }

  /// Family walk for a FREE attribute `a`: refreshes ctx->free_product /
  /// ctx->value from the current attribute totals and returns the (uniform)
  /// cofactors dP/dalpha_{a,v}. Component attributes are driven by
  /// ComponentSweep instead.
  std::vector<double> FreeFamilyCofactorsAndRefresh(AttrId a,
                                                    EvalContext* ctx) const;

  /// dP_c/ddelta_j restricted to j's component (no outer factors), against
  /// the per-group interval products of j's component that
  /// ComponentSweep::RangeSumProducts yields (delta factors are read live
  /// from `state`).
  double DeltaDerivativeLocalCached(const ModelState& state,
                                    const std::vector<double>& rs_prod,
                                    uint32_t j) const;

  /// Product of all factors of P except component `comp`'s value.
  double OuterProduct(const EvalContext& ctx, int comp) const;

  /// Component index of attribute `a`, or -1 when the attribute is free.
  int ComponentOfAttr(AttrId a) const { return attr_component_[a]; }
  /// Component index of multi-dim statistic `j`.
  int ComponentOfDelta(uint32_t j) const { return delta_component_[j]; }

  size_t NumComponents() const { return components_.size(); }

  // ------------------------------------------------------------------
  // Query-facing: masked evaluation against an EvalWorkspace's cached
  // unmasked factors (the Sec 4.2 rule, incrementally).
  // ------------------------------------------------------------------

  /// Fills `ws` for `state`, unless it already holds a factor cache: the
  /// unmasked EvalContext plus per-group interval-factor and delta-factor
  /// products. Every masked evaluation on `ws` reuses all of it, so a
  /// workspace serves one state, which must not change, for its whole life.
  const EvalContext& PrepareWorkspace(const ModelState& state,
                                      EvalWorkspace* ws) const;

  /// \brief Incremental masked evaluation of `q` (the Sec 4.2 rule,
  /// cached): P with every 1-D variable a predicate of `q` excludes zeroed.
  /// `q` carries one predicate per attribute of the polynomial.
  ///
  /// Only the attributes `q` constrains get fresh prefix sums, and only
  /// the components containing them get their groups re-walked — untouched
  /// components reuse the cached unmasked value, and every delta-factor
  /// product comes from the workspace cache.
  ///
  /// A predicate that allows exactly one code v of its domain (a point, a
  /// one-code IN set, BETWEEN v AND v) builds no prefix sum, and narrows
  /// its component's walk to the groups whose interval contains v: the
  /// shortest such stab list among the pinned attributes. Every other
  /// group has an exact-zero factor, so the value is bitwise the full
  /// walk's. Range predicates still walk every group of the touched
  /// components. Leaves the query's masked state in `ws` for the
  /// MaskedAlphaDerivatives follow-up below.
  ///
  /// With `reuse_residue`, that state from the previous call on `ws` is the
  /// starting point: only attributes whose predicate changed are rebuilt,
  /// and only components holding one re-walked. The result is still
  /// bitwise the fresh evaluation's; queries that share most predicates
  /// (a group-by's keys) then pay once for what they share.
  MaskedEval MaskedEvaluate(const ModelState& state, const CountingQuery& q,
                            EvalWorkspace* ws,
                            bool reuse_residue = false) const;

  /// Per-value dP[q]/dalpha_{a,v} via one cofactor pass over `a`'s
  /// component. `eval` must come from a MaskedEvaluate of the same query q
  /// on `ws`, with attribute `a` unconstrained (the group-by convention). When
  /// another attribute of the component is pinned, the pass visits only the
  /// groups its shortest stab list names (never `a`'s own, whose cofactor
  /// spans every code); otherwise it visits every group.
  std::vector<double> MaskedAlphaDerivatives(const ModelState& state,
                                             const MaskedEval& eval, AttrId a,
                                             EvalWorkspace* ws) const;

  // ------------------------------------------------------------------
  // Build and size.
  // ------------------------------------------------------------------

  /// Builds the compressed structure for the registry's statistics.
  static Result<CompressedPolynomial> Build(const VariableRegistry& reg,
                                            PolynomialOptions opts = {});

  /// Total number of non-empty compatible statistic sets (the paper's
  /// "summands"), excluding the per-component base terms.
  size_t NumGroups() const;
  /// Scalar-factor count of the compressed representation — the "size"
  /// measure of Theorem 4.2 (counts interval factors and delta factors).
  size_t CompressedSize() const;
  /// Monomial count of the uncompressed SOP polynomial: |Tup| = prod N_i.
  double UncompressedTermCount() const;
  /// Approximate heap footprint of the compressed structure in bytes, the
  /// stab lists included.
  size_t MemoryBytes() const;

  /// Largest number of statistics in any compatible set (max |S|).
  size_t MaxSetSize() const;

 private:
  friend class EvalWorkspace;
  friend class ComponentSweep;
  /// The tests' reference evaluators (tests/oracles/closure_oracle.h)
  /// read the closure directly.
  friend class ClosureOracle;

  /// A position with no pinned code (see ForEachReachableGroup).
  static constexpr Code kNoPin = UINT32_MAX;

  struct Component {
    std::vector<AttrId> attrs;      ///< sorted attribute ids
    std::vector<uint32_t> stats;    ///< global multi-dim stat ids, sorted
    /// Flat rectangles: group g spans rects[g*attrs.size() .. +attrs.size()).
    std::vector<Interval> rects;
    /// Flat stat-id lists with offsets (global ids).
    std::vector<uint32_t> stats_flat;
    std::vector<uint32_t> stats_offset;  ///< size num_groups()+1
    /// Per global stat id (local order of `stats`): groups containing it.
    std::vector<std::vector<uint32_t>> stat_groups;
    /// Per attribute position i, a CSR stab list derived from `rects`: the
    /// groups whose interval at i contains code v are
    /// stab_groups[i][stab_offset[i][v] .. stab_offset[i][v + 1]), in
    /// ascending order. The offsets are 64-bit because a position's list
    /// holds sum_g width_g(i) entries. Built once, never persisted, and
    /// shared read-only by every workspace.
    std::vector<std::vector<uint64_t>> stab_offset;
    std::vector<std::vector<uint32_t>> stab_groups;

    size_t num_groups() const { return stats_offset.size() - 1; }
  };

  /// Attribute `a`'s interval factor over `iv` under the query whose
  /// residue `ws` holds: alpha[v] or 0 for a pinned code v (bitwise the
  /// RangeSum of its one-code prefix sum, which is never built), the masked
  /// prefix sum's RangeSum for any other constrained attribute.
  static double MaskedRangeSum(const EvalWorkspace& ws, AttrId a,
                               const Interval& iv);

  /// Calls visit(g), in ascending order, for each group on the shortest
  /// stab list among the positions i != skip_pos where pin(i) returns a
  /// code (not kNoPin), or for every group of `comp` when no such
  /// position exists. A group left out has an exact-zero interval factor
  /// at that pinned position, which the callers' loops would drop anyway,
  /// so their sums are bitwise those of the full walk.
  template <typename PinFn, typename VisitFn>
  static void ForEachReachableGroup(const Component& comp, size_t skip_pos,
                                    const PinFn& pin, const VisitFn& visit);

  /// Recursively extends a compatible set with higher-indexed statistics.
  Status EnumerateGroups(const VariableRegistry& reg, Component* comp,
                         size_t max_groups);

  /// Product over the group's delta factors (skipping global stat
  /// `skip_stat`, pass UINT32_MAX to keep all) times the group's interval
  /// factors, skipping attribute position `skip_pos` (pass SIZE_MAX to
  /// include all). Delta factors are multiplied first: they are cheap and
  /// frequently zero (pinned or neutral deltas), so the zero short-circuit
  /// fires before any prefix-sum lookups.
  double GroupProduct(const Component& comp, size_t g,
                      const EvalContext& ctx, const ModelState& state,
                      size_t skip_pos, uint32_t skip_stat) const;

  /// Per group of component `c`: product of the (delta_j - 1) factors.
  std::vector<double> ComponentDeltaProducts(int c,
                                             const ModelState& state) const;

  /// P_c for component `c` under `ctx`'s prefix sums / totals.
  double ComponentValue(const Component& comp, const EvalContext& ctx,
                        const ModelState& state) const;

  /// True when component fan-out is worthwhile for this polynomial.
  bool UseParallelComponents() const;

  std::vector<uint32_t> domain_sizes_;
  std::vector<AttrId> free_attrs_;
  std::vector<Component> components_;
  std::vector<int> attr_component_;    ///< per attribute; -1 = free
  std::vector<int> delta_component_;   ///< per multi-dim stat
  /// Per multi-dim stat: its local index within its component's `stats`
  /// (precomputed at build time; replaces binary searches on hot paths).
  std::vector<uint32_t> delta_local_;
  /// Per attribute: local position within its component's `attrs`
  /// (meaningless for free attributes).
  std::vector<size_t> attr_local_;
  /// Free attributes first, then each component's attributes (FamilyOrder).
  std::vector<AttrId> family_order_;
  size_t parallel_min_groups_ = SIZE_MAX;
  size_t num_groups_ = 0;
};

/// \brief Drives one component's alpha phase of a Gauss-Seidel sweep with
/// a single prefix/suffix-cofactor pass.
///
/// The solver updates families in increasing local position order, so a
/// group's cofactor at position p factorizes as
///
///   (updated columns < p, accumulated as a running prefix product) *
///   (untouched columns > p, from ONE backward suffix pass per sweep) *
///   (the group's delta product, frozen for the whole alpha phase)
///
/// making every family walk one multiply per group instead of a fresh
/// O(width) product — the sweep's total group work is O(groups * width)
/// for ALL families together. The interval-factor matrix persists across
/// sweeps (only updated columns are rewritten), and after the last family
/// the running prefix IS the per-group interval product the delta phase
/// needs, for free.
class ComponentSweep {
 public:
  ComponentSweep(const CompressedPolynomial& poly, int c)
      : poly_(&poly), c_(c) {}

  /// Starts a sweep: refreshes the delta products and the suffix products
  /// (factors carry over from the previous sweep; built on first use).
  void BeginSweep(const ModelState& state,
                  const CompressedPolynomial::EvalContext& ctx);

  /// Full cofactors dP/dalpha_{a,v} of the next family (families must be
  /// visited in increasing local position order). Also refreshes the
  /// component's value and P in `ctx`.
  std::vector<double> FamilyCofactors(AttrId a,
                                      CompressedPolynomial::EvalContext* ctx);

  /// Folds family `a` into the running prefix after its update completed.
  /// `alphas_changed` says whether ctx->prefix[a] was rebuilt (otherwise
  /// the cached column is reused).
  void Advance(AttrId a, bool alphas_changed,
               const CompressedPolynomial::EvalContext& ctx);

  /// Per-group interval products — valid once every family has advanced;
  /// feeds DeltaDerivativeLocalCached in the delta phase.
  const std::vector<double>& RangeSumProducts() const { return prefix_run_; }

  /// P_c from the finished products (base term from ctx's totals).
  double ComponentValue(
      const CompressedPolynomial::EvalContext& ctx) const;

 private:
  const CompressedPolynomial* poly_;
  int c_;
  bool factors_built_ = false;
  /// Flat [g * nattrs + i]: interval factors; persists across sweeps.
  std::vector<double> factors_;
  /// Per group: product of (delta_j - 1); refreshed each BeginSweep.
  std::vector<double> delta_prod_;
  /// Flat [g * (nattrs + 1) + i]: product of factors at positions >= i.
  std::vector<double> suffix_;
  /// Per group: product of already-advanced columns.
  std::vector<double> prefix_run_;
};

/// \brief Reusable scratch + cache for query-facing evaluation.
///
/// A workspace is two halves with very different sharing rules:
///
///  - an immutable FactorCache — the unmasked EvalContext plus per-group
///    interval-factor, skip-cofactor, and delta-factor products. Building it
///    is the O(all groups) warm-up cost; once built it is never written
///    again, so any number of workspaces may share ONE cache by shared_ptr
///    (ShareCacheWith). This is what makes a pool of per-thread workspaces
///    cheap: only the first one pays the warm-up.
///  - private masked scratch — the per-attribute predicates and masked
///    prefix sums, and the per-component values, of the most recent
///    MaskedEvaluate. This half is mutated by every query, which is why a
///    single workspace is NOT safe for concurrent use; give each query
///    thread its own (see maxent/workspace_pool.h).
///
/// Bound to one (polynomial, state) pair for its whole life: the first
/// PrepareWorkspace fills it, and the state must not change after that.
class EvalWorkspace {
 public:
  EvalWorkspace() = default;

  /// Adopts `other`'s warmed immutable factor cache (a shared_ptr copy, so
  /// O(1)); this workspace then only pays for its private scratch on first
  /// use. Both workspaces must serve the same (polynomial, state) pair —
  /// identical caches are also what keeps results bitwise-stable across
  /// whichever pool member answers a query.
  void ShareCacheWith(const EvalWorkspace& other) {
    cache_ = other.cache_;
    scratch_ready_ = false;
  }

 private:
  friend class CompressedPolynomial;

  /// The shared immutable half; write-once inside PrepareWorkspace.
  struct FactorCache {
    CompressedPolynomial::EvalContext unmasked;
    /// Per component, flat [g * nattrs + i]: group g's unmasked interval
    /// factor at attribute position i.
    std::vector<std::vector<double>> rs_factor;
    /// Per component, flat [g * nattrs + i]: delta product * product of the
    /// OTHER positions' unmasked interval factors — the skip-position
    /// cofactor. A component with exactly one constrained attribute is then
    /// one fused multiply-add per group.
    std::vector<std::vector<double>> skip_cof;
    /// Per component, per group: product of the (delta_j - 1) factors.
    std::vector<std::vector<double>> delta_prod;
  };

  std::shared_ptr<const FactorCache> cache_;
  bool scratch_ready_ = false;

  // --- private scratch: state of the most recent MaskedEvaluate ---
  std::vector<AttrPredicate> pred_;      ///< per attribute: its predicate
  std::vector<uint8_t> attr_masked_;     ///< per attribute: constrained?
  /// Built only for constrained attributes that are not pinned.
  std::vector<PrefixSum> masked_prefix_;
  /// Per attribute: the one code the query's predicate allows, or
  /// CompressedPolynomial::kNoPin (unconstrained, or several codes).
  std::vector<Code> pin_;
  std::vector<double> eff_total_;        ///< per attribute: T_i under mask
  std::vector<double> comp_value_;       ///< per component: P_c under it
  std::vector<double> buf_;              ///< masked-alpha scratch
  std::vector<uint8_t> comp_scratch_;    ///< per component: changed flags
};

}  // namespace entropydb

#endif  // ENTROPYDB_MAXENT_POLYNOMIAL_H_
