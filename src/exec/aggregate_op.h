#ifndef MAGICDB_EXEC_AGGREGATE_OP_H_
#define MAGICDB_EXEC_AGGREGATE_OP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/hash_table.h"
#include "src/exec/agg_state.h"
#include "src/exec/operator.h"
#include "src/expr/expr.h"
#include "src/parallel/partitioned_aggregate.h"
#include "src/plan/logical_plan.h"
#include "src/spill/agg_spill.h"

namespace magicdb {

class FilterJoinOp;
class SeqScanOp;

/// Hash aggregation: groups by the group-by expressions and computes the
/// aggregate specs per group. Output layout: group columns, then aggregate
/// results, matching AggregateNode.
///
/// With no group-by columns, exactly one output row is produced (SQL scalar
/// aggregate semantics, COUNT(*)=0 on empty input).
///
/// Two execution modes:
///
///   Sequential (default): Open() drains the child into one hash table;
///   Next() emits groups in first-seen order.
///
///   Parallel (EnableParallel): this instance is one of `dop` pipeline
///   replicas. Open() accumulates a morsel-local partial table over this
///   worker's input slice, stages the partial groups into the
///   SharedAggregate by key-hash partition, then merges the one partition
///   this worker owns (two-phase aggregation; see SharedAggregate). Next()
///   emits the merged partition's groups — sorted by first-seen input rank
///   (pos, sub), which last_group_pos()/last_group_sub() expose so the
///   gather merge can interleave the per-worker runs back into exactly the
///   sequential first-seen output order.
class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OpPtr child, std::vector<ExprPtr> group_by,
                  std::vector<AggSpec> aggs, Schema schema);

  Status Open(ExecContext* ctx) override;
  Status Next(Tuple* out, bool* eof) override;
  /// Native batch emission: finalized groups stream out column-wise (rank
  /// tags attached in parallel mode so the gather merge can order them).
  /// The out-of-core (AggSpill) output path goes through the row adapter.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

  /// Switches this replica into two-phase parallel mode. `worker` is this
  /// replica's index in `shared`. Input rows are ranked by the driving
  /// chain's position provider: `filter_join->last_probe_global_pos()` when
  /// the chain contains a Filter Join (it re-emits the production set, so
  /// several input rows may share one driving position — the per-position
  /// emission index `sub` disambiguates), else
  /// `driving_scan->last_global_row()`.
  void EnableParallel(std::shared_ptr<SharedAggregate> shared, int worker,
                      SeqScanOp* driving_scan, FilterJoinOp* filter_join) {
    shared_ = std::move(shared);
    worker_ = worker;
    pos_scan_ = driving_scan;
    pos_filter_join_ = filter_join;
  }

  /// First-seen input rank (pos, sub) of the group most recently emitted by
  /// Next(). Parallel mode only; the gather merge orders rows by it.
  int64_t last_group_pos() const { return last_group_pos_; }
  int64_t last_group_sub() const { return last_group_sub_; }

  /// Cardinality-feedback annotation: the optimizer's group-count estimate.
  /// Sequential Open() records the observed group count into the context
  /// ledger as an observation-only entry (parallel partials are
  /// worker-local, so the parallel path does not record).
  void AnnotateGroupCardinality(std::string key, double estimated_groups) {
    feedback_key_ = std::move(key);
    feedback_est_groups_ = estimated_groups;
  }

 private:
  Status Accumulate(const Tuple& row, StagedGroup* group);
  /// Folds one already-evaluated argument value into an aggregate state —
  /// the shared kernel of the row path (Accumulate) and the vectorized path
  /// (FoldPreEvaluated). NULLs are skipped per SQL semantics.
  static Status FoldValue(const AggSpec& spec, const Value& v, AggState* st);
  /// Batch-path accumulate: folds row `r` of the per-spec resolved argument
  /// operands (zero-copy column views where the argument is a plain column
  /// ref) into `group`. Expression-evaluation counters are charged
  /// batch-wise by the caller.
  Status FoldPreEvaluated(const std::vector<BatchOperand>& agg_ops, int32_t r,
                          StagedGroup* group);
  /// Routes one input row's group key to its destination — a spill partial,
  /// an existing resident group, or a freshly charged one (with the
  /// breach->eviction retry loop) — and applies `fold` to it. Shared by the
  /// row and batch input drains; `coalesce_charges` selects the chunked
  /// reservation (group_reserve_) over exact per-group charges. Templated
  /// on the key source (Equals/Materialize/ByteWidth — the key Tuple is
  /// materialized at most once, and not at all when the group already
  /// exists) and the fold callable, so the per-input-row call carries no
  /// std::function construction (defined in aggregate_op.cc; both drains
  /// live there, so the instantiations are local).
  template <typename KeySrc, typename Fold>
  Status DispatchRow(ExecContext* ctx, const KeySrc& key_src, uint64_t h,
                     int64_t input_pos, int64_t input_sub, bool parallel,
                     bool coalesce_charges, const Fold& fold);
  StatusOr<Value> Finalize(const AggSpec& spec, const AggState& state) const;

  OpPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggs_;
  ExecContext* ctx_ = nullptr;
  // Sequential: first-seen order. Parallel: this worker's merged partition,
  // sorted by first-seen input rank.
  std::vector<StagedGroup> groups_;
  // Indexes groups_ by entry id while the input is aggregated.
  HashTable group_index_;
  size_t next_group_ = 0;
  bool aggregated_ = false;
  // Bytes charged to the query memory tracker for retained groups (keys +
  // aggregate states, whether local or staged into the shared partitioned
  // aggregate); released on Close.
  int64_t charged_bytes_ = 0;
  // Out-of-core hash aggregation, engaged when a new group breaches the
  // query's hard memory limit and spilling is enabled (sequential mode
  // only). Victim partitions of the group table are evicted as partial
  // states and re-aggregated one at a time at end of input.
  std::unique_ptr<AggSpill> agg_spill_;
  // Vectorized path: coalesced new-group memory charges (one tracker round
  // trip per reservation chunk instead of per group).
  BatchReserve group_reserve_;
  // Cardinality-feedback annotation (AnnotateGroupCardinality); key empty =
  // not annotated.
  std::string feedback_key_;
  double feedback_est_groups_ = 0.0;

  // Parallel mode (EnableParallel); null/unused when sequential.
  std::shared_ptr<SharedAggregate> shared_;
  int worker_ = 0;
  SeqScanOp* pos_scan_ = nullptr;
  FilterJoinOp* pos_filter_join_ = nullptr;
  int64_t last_group_pos_ = 0;
  int64_t last_group_sub_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_AGGREGATE_OP_H_
