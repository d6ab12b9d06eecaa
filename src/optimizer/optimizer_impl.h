#ifndef MAGICDB_OPTIMIZER_OPTIMIZER_IMPL_H_
#define MAGICDB_OPTIMIZER_OPTIMIZER_IMPL_H_

// Internal implementation header for the optimizer; not part of the public
// API. Shared by optimizer_node.cc (per-node planning, facade) and
// optimizer_join.cc (join-block dynamic programming and Filter Join
// costing).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/exec/filter_join_op.h"
#include "src/optimizer/optimizer.h"
#include "src/rewrite/magic_rewrite.h"
#include "src/stats/feedback_store.h"

namespace magicdb {
namespace optimizer_internal {

/// Builds a fresh operator tree for a planned (sub)plan. Thunks are
/// re-invocable: each call constructs new operators.
using BuildFn = std::function<StatusOr<OpPtr>()>;

/// Planning context threaded through recursive estimation: assumed
/// cardinalities for magic filter-set bindings referenced by
/// FilterSetRef/FilterSetProbe nodes.
struct PlanContext {
  std::map<std::string, double> filter_set_rows;
  std::map<std::string, double> filter_set_fpr;  // >0 marks Bloom bindings
};

/// Result of planning one logical node: estimates plus an operator builder.
struct Planned {
  Estimate est;
  /// Estimated distinct values per output column.
  std::vector<double> distinct;
  /// Output columns the stream is sorted by, ascending (System R
  /// "interesting order"); empty when unordered. Lets PlanSort elide the
  /// final sort when a sort-merge plan already delivers ORDER BY's order.
  std::vector<int> order_cols;
  BuildFn build;
  Schema schema;
};

/// How one join-block input is accessed.
enum class AccessKind {
  kLocalTable,
  kRemoteTable,
  kView,
  kFunction,
  kSubplan,       // nested non-scan input (e.g. derived table)
  kFilterSetRef,  // magic filter set inside a rewritten view plan
};

/// One FROM-clause input of a join block with its access-path information.
struct InputInfo {
  int id = 0;
  LogicalPtr node;
  const CatalogEntry* entry = nullptr;  // when node is a RelScan
  AccessKind access = AccessKind::kLocalTable;
  int site = kLocalSite;
  std::string alias;
  Schema schema;     // input schema (block slice)
  int col_offset = 0;
  std::vector<ExprPtr> local_preds;  // in input column space

  /// Unrestricted access path (local predicates applied, shipped to the
  /// local site if remote).
  Planned planned;

  /// Base-table figures before local predicates (INL probes the raw
  /// table).
  double base_rows = 0.0;
  double local_selectivity = 1.0;
  std::vector<double> base_distinct;

  bool IsVirtual() const { return access != AccessKind::kLocalTable; }
};

/// Equi-join conjunct decomposed into block-space column pair.
struct EquiEdge {
  int conjunct_id;
  int left_input, right_input;
  int left_col, right_col;  // block columns
};

/// One conjunct of the join block's predicate.
struct Conjunct {
  ExprPtr expr;       // block column space
  uint32_t mask = 0;  // inputs referenced
  bool is_equi = false;
  int equi_edge = -1;  // index into edges when is_equi
};

/// The analyzed join block.
struct JoinGraph {
  std::vector<InputInfo> inputs;
  std::vector<Conjunct> conjuncts;
  std::vector<EquiEdge> edges;
  Schema block_schema;
  int num_block_cols = 0;
  /// Column-equivalence classes induced by the equi edges (transitive
  /// closure); col_class[c] is a representative column id. Implied edges
  /// (E=D and E=V imply D=V) are added to `edges`/`conjuncts` so orders
  /// that join transitively-equal inputs first are not cross products —
  /// the Figure-3 orders 3-4 SIPS depend on this.
  std::vector<int> col_class;
};

/// Join methods a step can use.
enum class StepMethod {
  kAccess,
  kNestedLoops,
  kIndexNL,
  kHash,
  kSortMerge,
  kFilterJoin,
  kFnProbe,
  kFnMemo,
};

const char* StepMethodName(StepMethod m);

struct JoinStep;
using JoinStepPtr = std::shared_ptr<const JoinStep>;

/// A node of the chosen (left-deep) join tree.
struct JoinStep {
  StepMethod method = StepMethod::kAccess;
  int input = -1;            // accessed input (kAccess) or the inner input
  JoinStepPtr outer;         // null for kAccess
  std::vector<std::pair<int, int>> keys;  // block cols (outer, inner)
  std::vector<ExprPtr> residuals;         // block-space conjuncts applied here
  std::vector<int> output_block_cols;     // output layout -> block columns

  /// Sort-merge: the outer arrives presorted on the keys.
  bool smj_outer_presorted = false;

  /// kAccess via an ordered index scan on these table columns (empty =
  /// plain sequential scan). Provides the corresponding interesting order.
  std::vector<int> ordered_scan_cols;

  // Filter Join details.
  FilterSetImpl fs_impl = FilterSetImpl::kExact;
  /// Positions (into `keys`) of the attributes contributing to the filter
  /// set; empty = all (the Limitation-3 default).
  std::vector<int> filter_key_positions;
  std::string binding_id;
  LogicalPtr rewritten_inner;  // magic-rewritten inner plan (views/subplans)
  FilterJoinCostBreakdown breakdown;

  double cost = 0.0;  // cumulative
  double rows = 0.0;
};

/// A DP table entry (also used by the exhaustive enumerator).
struct PartialPlan {
  uint32_t set = 0;
  double cost = 0.0;
  double rows = 0.0;
  int64_t width = 0;
  std::vector<double> distinct;  // block-space, valid for covered inputs
  std::vector<int> order_cols;   // sorted-by block columns (may be empty)
  JoinStepPtr step;
};

/// Feedback identity of a join-block input: the key its observed build
/// cardinality is recorded — and, for overlay-eligible scan:/view: keys,
/// re-planned — under (see src/stats/feedback_store.h). Empty when the
/// input has no stable identity (table functions, filter-set references).
std::string InputFeedbackKey(const InputInfo& in);

/// Parametric costing cache for one virtual inner (§4.2): lazily computed
/// (selectivity, cost, rows) samples at equivalence-class centers.
struct ParametricCache {
  LogicalPtr rewritten;  // magic-rewritten inner plan
  std::string binding_id;
  double inner_key_domain = 1.0;  // distinct key values in the inner
  struct Sample {
    double selectivity;
    double cost;
    double rows;
  };
  std::vector<Sample> samples;  // indexed by bucket; selectivity<0 = empty
};

/// What a ParametricCache is keyed by: the inner (node and alias), the
/// inner columns the filter set restricts, and the rewrite style. The key
/// holds the node, so its address cannot be reused by another node while
/// the cache lives.
struct ParametricKey {
  LogicalPtr node;
  std::string alias;
  std::vector<int> key_cols;
  RewriteStyle style;
};

/// A ParametricKey's fields by reference: looks a cache up without
/// copying the alias or the key columns.
struct ParametricKeyRef {
  const LogicalNode* node;
  std::string_view alias;
  std::span<const int> key_cols;
  RewriteStyle style;
};

struct ParametricKeyLess {
  using is_transparent = void;
  static uintptr_t Node(const ParametricKey& k) {
    return reinterpret_cast<uintptr_t>(k.node.get());
  }
  static uintptr_t Node(const ParametricKeyRef& k) {
    return reinterpret_cast<uintptr_t>(k.node);
  }
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const {
    if (Node(a) != Node(b)) return Node(a) < Node(b);
    if (a.style != b.style) return a.style < b.style;
    const std::string_view alias_a = a.alias;
    const std::string_view alias_b = b.alias;
    if (alias_a != alias_b) return alias_a < alias_b;
    return std::lexicographical_compare(a.key_cols.begin(), a.key_cols.end(),
                                        b.key_cols.begin(), b.key_cols.end());
  }
};

/// Methods a join step may use, in the order every enumerator tries them.
inline constexpr StepMethod kJoinMethods[] = {
    StepMethod::kNestedLoops, StepMethod::kHash,    StepMethod::kSortMerge,
    StepMethod::kIndexNL,     StepMethod::kFnProbe, StepMethod::kFnMemo,
    StepMethod::kFilterJoin,
};

/// One production-set choice for a Filter Join: the full outer, or (the
/// Limitation-2 ablation) an outer-chain prefix that produces every key.
struct ProductionSet {
  double rows;
  double width;
  int prefix_len;  // -1 = full outer
};

/// What joining one outer partial plan with one inner input implies
/// whatever the join method: computed once per (outer, inner) pair and
/// shared by the costing of every method. The vectors are reused from pair
/// to pair, so steady-state costing allocates nothing.
struct StepFacts {
  int inner_id = -1;
  uint32_t new_set = 0;
  /// Equi-join keys (outer block col, inner col), one per inner column,
  /// sorted by inner column.
  std::vector<std::pair<int, int>> keys;
  std::vector<int> key_outer_cols;  // keys[i].first
  std::vector<int> key_inner_cols;  // keys[i].second
  /// Keys binding a table function's argument columns (icol < nargs), in
  /// key order; empty unless the inner is a function.
  std::vector<std::pair<int, int>> arg_keys;
  /// Conjuncts applied at this step (indices into JoinGraph::conjuncts),
  /// in conjunct order; equi conjuncts included.
  std::vector<int> applied;
  int num_residuals = 0;  // non-equi conjuncts among `applied`
  double resid_sel = 1.0;  // selectivity of the residuals
  double mid_rows = 0.0;   // after the equi keys
  double out_rows = 0.0;  // after the residuals too
  /// Outer distinct counts with the inner's columns filled in.
  std::vector<double> combined;
  /// Prefix production sets (only with explore_prefix_production_sets).
  std::vector<ProductionSet> prefix_sets;
  std::vector<int> counted_classes;  // scratch
};

/// The outcome of costing one join method for a StepFacts pair: plain
/// values, from which BuildCandidate makes the PartialPlan and JoinStep
/// once the enumerator decides to keep the step.
struct StepCost {
  StepMethod method = StepMethod::kAccess;
  double cost = 0.0;  // cumulative (outer cost included)
  double rows = 0.0;
  /// Sort-merge: the outer arrives sorted on the keys, whose order then
  /// follows the outer's.
  bool smj_outer_presorted = false;
  // The winning Filter Join variant.
  FilterSetImpl fs_impl = FilterSetImpl::kExact;
  int filter_key_pos = -1;  // single key position; -1 = every key
  /// The filter set's binding: a parametric cache's (views, subplans) or
  /// one numbered for this step (tables, functions).
  const ParametricCache* cache = nullptr;
  int64_t binding_number = -1;
  FilterJoinCostBreakdown breakdown;
};

}  // namespace optimizer_internal


/// Private implementation of Optimizer.
class Optimizer::Impl {
 public:
  using Planned = optimizer_internal::Planned;
  using PlanContext = optimizer_internal::PlanContext;
  using JoinGraph = optimizer_internal::JoinGraph;
  using InputInfo = optimizer_internal::InputInfo;
  using PartialPlan = optimizer_internal::PartialPlan;
  using JoinStep = optimizer_internal::JoinStep;
  using JoinStepPtr = optimizer_internal::JoinStepPtr;
  using StepMethod = optimizer_internal::StepMethod;
  using ParametricCache = optimizer_internal::ParametricCache;
  using StepFacts = optimizer_internal::StepFacts;
  using StepCost = optimizer_internal::StepCost;

  Impl(const Catalog* catalog, OptimizerOptions* options,
       OptimizerStats* stats)
      : catalog_(catalog), options_(options), stats_(stats) {}

  // ----- implemented in optimizer_node.cc -----

  /// Recursively plans any logical node.
  StatusOr<Planned> PlanNode(const LogicalPtr& node, PlanContext* ctx);

  StatusOr<Planned> PlanRelScan(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanFilter(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanProject(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanAggregate(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanDistinct(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanSort(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanFilterSetRef(const LogicalPtr& node, PlanContext* ctx);
  StatusOr<Planned> PlanFilterSetProbe(const LogicalPtr& node,
                                       PlanContext* ctx);

  /// Selectivity of one predicate conjunct against a stream with the given
  /// per-column distinct estimates and (optionally) base-table stats.
  double ConjunctSelectivity(const ExprPtr& conjunct,
                             const std::vector<double>& distinct,
                             const TableStats* stats, double rows) const;

  /// Fresh binding id for a magic filter set.
  std::string NextBindingId(const std::string& hint);

  /// The binding id NextBindingId returns for `hint` and number `n`.
  static std::string BindingId(const std::string& hint, int64_t n);

  // ----- implemented in optimizer_join.cc -----

  /// Plans a join block (NaryJoin node) via the System-R DP.
  StatusOr<Planned> PlanJoinBlock(const LogicalPtr& node, PlanContext* ctx);

  /// Analyzes the block: inputs, conjunct classification, access paths.
  StatusOr<JoinGraph> BuildJoinGraph(const NaryJoinNode& join,
                                     PlanContext* ctx);

  // Join steps are costed first and built later: ComputeStepFacts once per
  // (outer, inner) pair, CostStep once per method with plain values, and
  // BuildCandidate only for the steps an enumerator keeps. Every side
  // effect of costing (binding numbers, parametric-cache fills, stats)
  // happens in CostStep, so it is the same whether or not a step is kept.

  /// Whether an enumerator tries `method` at all under the options.
  bool Considers(StepMethod method, bool allow_filter_join) const;

  /// Fills `facts` for joining `outer` with input `inner_id`.
  void ComputeStepFacts(const JoinGraph& graph, const PartialPlan& outer,
                        int inner_id, StepFacts* facts) const;

  /// Costs joining `outer` with the inner of `facts` by `method` into
  /// `out`. Returns false when the method does not apply (allocating
  /// nothing), or an error when costing a Filter Join's restricted inner
  /// fails.
  StatusOr<bool> CostStep(const JoinGraph& graph, const PartialPlan& outer,
                          const StepFacts& facts, StepMethod method,
                          PlanContext* ctx, StepCost* out);

  /// The sort order the costed step delivers (empty without interesting
  /// orders); views `outer` and `facts`.
  std::span<const int> StepOrder(const PartialPlan& outer,
                                 const StepFacts& facts,
                                 const StepCost& cost) const;

  /// Builds the partial plan and JoinStep of a costed step.
  PartialPlan BuildCandidate(const JoinGraph& graph, const PartialPlan& outer,
                             const StepFacts& facts,
                             const StepCost& cost) const;

  /// Seeds a single-input partial plan.
  StatusOr<PartialPlan> AccessPlan(const JoinGraph& graph, int input_id);

  /// Column sets of the ordered indexes available on a local-table input.
  static std::vector<std::vector<int>> OrderedIndexColumnSets(
      const InputInfo& input);

  /// Alternative seed scanning via the ordered index on `index_cols`;
  /// costs slightly more than a sequential scan but provides the order.
  StatusOr<PartialPlan> OrderedAccessPlan(const JoinGraph& graph,
                                          int input_id,
                                          const std::vector<int>& index_cols);

  /// Builds executable operators for a join-step tree.
  StatusOr<OpPtr> BuildStep(const JoinGraph& graph, const JoinStep& step,
                            PlanContext* ctx);

  /// Exhaustive left-deep enumeration for diagnostics (E2).
  StatusOr<std::vector<JoinOrderCost>> EnumerateOrders(const NaryJoinNode& join,
                                                       PlanContext* ctx);

  /// DP driver shared by PlanJoinBlock and the Starburst-style baseline.
  StatusOr<PartialPlan> RunDP(const JoinGraph& graph, PlanContext* ctx,
                              bool allow_filter_join);

  /// Starburst baseline: force Filter Joins onto every eligible virtual
  /// inner of `chain`'s join order, keeping the order fixed.
  StatusOr<PartialPlan> RecostWithForcedFilterJoins(const JoinGraph& graph,
                                                    const PartialPlan& chain,
                                                    PlanContext* ctx);

  const Catalog* catalog_;
  OptimizerOptions* options_;
  OptimizerStats* stats_;
  int64_t next_binding_ = 0;

  /// Observed-cardinality overrides for join-block inputs (nullable; not
  /// owned). See Optimizer::set_cardinality_overlay.
  const CardinalityOverlay* overlay_ = nullptr;

  /// Unrestricted view access plans, keyed by relation name (avoids
  /// repeated nested optimization of the same view).
  std::map<std::string, Planned> view_cache_;

  /// Parametric restricted-inner caches.
  std::map<optimizer_internal::ParametricKey, ParametricCache,
           optimizer_internal::ParametricKeyLess>
      parametric_;

  /// Table-1 breakdowns of Filter Joins in plans actually chosen (cleared
  /// per Optimize call; suppressed during parametric trial planning).
  std::vector<FilterJoinCostBreakdown> chosen_filter_joins_;
  bool collect_breakdowns_ = true;

  /// Nesting depth of Filter Join costing (parametric trial planning may
  /// recurse into further join blocks); bounded as a safety backstop.
  int filter_join_depth_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_OPTIMIZER_OPTIMIZER_IMPL_H_
