#include "src/exec/aggregate_op.h"

#include <limits>

#include "src/common/failpoint.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/exec/filter_join_op.h"
#include "src/exec/scan_ops.h"

namespace magicdb {

namespace {

/// Key sources abstract where DispatchRow's group key comes from, so the
/// hot path (the group already exists) never materializes a key Tuple:
/// Equals compares in place, and Materialize is called at most once per
/// dispatched row — only for a fresh group or a spill partial.
struct TupleKeySource {
  Tuple* key;
  bool Equals(const Tuple& other) const {
    return CompareTuples(*key, other) == 0;
  }
  Tuple Materialize() const { return std::move(*key); }
  int64_t ByteWidth() const { return TupleByteWidth(*key); }
};

/// Batch-drain key source: reads group-key values for physical row `r`
/// straight from the resolved operand views.
struct OperandKeySource {
  const std::vector<BatchOperand>* ops;
  size_t r;
  bool Equals(const Tuple& other) const {
    if (other.size() != ops->size()) return false;
    for (size_t i = 0; i < ops->size(); ++i) {
      if (other[i].Compare((*ops)[i].at(r)) != 0) return false;
    }
    return true;
  }
  Tuple Materialize() const {
    Tuple key;
    key.reserve(ops->size());
    for (const BatchOperand& op : *ops) key.push_back(op.at(r));
    return key;
  }
  int64_t ByteWidth() const {
    int64_t w = 0;
    for (const BatchOperand& op : *ops) w += op.at(r).ByteWidth();
    return w;
  }
  /// Same fold as HashTupleColumns over the materialized key.
  uint64_t Hash() const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const BatchOperand& op : *ops) h = HashCombine(h, op.at(r).Hash());
    return h;
  }
};

}  // namespace

HashAggregateOp::HashAggregateOp(OpPtr child, std::vector<ExprPtr> group_by,
                                 std::vector<AggSpec> aggs, Schema schema)
    : Operator(std::move(schema)),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {}

Status HashAggregateOp::FoldValue(const AggSpec& spec, const Value& v,
                                  AggState* st) {
  if (v.is_null()) return Status::OK();  // SQL aggregates skip NULLs
  ++st->count;
  switch (spec.func) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      MAGICDB_ASSIGN_OR_RETURN(double d, v.AsNumeric());
      st->sum += d;
      if (v.type() == DataType::kInt64 && st->int_sum) {
        st->isum += v.AsInt64();
      } else {
        st->int_sum = false;
      }
      break;
    }
    case AggFunc::kMin:
      if (st->min.is_null() || v.Compare(st->min) < 0) st->min = v;
      break;
    case AggFunc::kMax:
      if (st->max.is_null() || v.Compare(st->max) > 0) st->max = v;
      break;
    case AggFunc::kCountStar:
      break;
  }
  return Status::OK();
}

Status HashAggregateOp::Accumulate(const Tuple& row, StagedGroup* group) {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggSpec& spec = aggs_[a];
    AggState& st = group->states[a];
    if (spec.func == AggFunc::kCountStar) {
      ++st.count;
      continue;
    }
    ctx_->counters().exprs_evaluated += 1;
    MAGICDB_ASSIGN_OR_RETURN(Value v, spec.arg->Eval(row));
    MAGICDB_RETURN_IF_ERROR(FoldValue(spec, v, &st));
  }
  return Status::OK();
}

Status HashAggregateOp::FoldPreEvaluated(
    const std::vector<BatchOperand>& agg_ops, int32_t r, StagedGroup* group) {
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const AggSpec& spec = aggs_[a];
    AggState& st = group->states[a];
    if (spec.func == AggFunc::kCountStar) {
      ++st.count;
      continue;
    }
    MAGICDB_RETURN_IF_ERROR(
        FoldValue(spec, agg_ops[a].at(static_cast<size_t>(r)), &st));
  }
  return Status::OK();
}

StatusOr<Value> HashAggregateOp::Finalize(const AggSpec& spec,
                                          const AggState& st) const {
  switch (spec.func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Int64(st.count);
    case AggFunc::kSum:
      if (st.count == 0) return Value::Null();
      if (st.int_sum) return Value::Int64(st.isum);
      return Value::Double(st.sum);
    case AggFunc::kAvg:
      if (st.count == 0) return Value::Null();
      return Value::Double(st.sum / static_cast<double>(st.count));
    case AggFunc::kMin:
      return st.min;
    case AggFunc::kMax:
      return st.max;
  }
  return Status::Internal("bad aggregate function");
}

template <typename KeySrc, typename Fold>
Status HashAggregateOp::DispatchRow(ExecContext* ctx, const KeySrc& key_src,
                                    uint64_t h, int64_t input_pos,
                                    int64_t input_sub, bool parallel,
                                    bool coalesce_charges, const Fold& fold) {
  StagedGroup* group = nullptr;
  while (true) {
    if (agg_spill_ != nullptr && agg_spill_->IsSpilled(h)) {
      // This hash partition has been evicted: fold the row into a one-row
      // partial state and append it to the partition file; it is combined
      // during re-aggregation at end of input.
      StagedGroup partial;
      partial.pos = input_pos;
      partial.sub = input_sub;
      partial.hash = h;
      partial.key = key_src.Materialize();
      partial.states.resize(aggs_.size());
      MAGICDB_RETURN_IF_ERROR(fold(&partial));
      return agg_spill_->AddPartial(partial, ctx);
    }
    for (HashTable::EntryId gi : group_index_.Chain(h)) {
      if (key_src.Equals(groups_[gi].key)) {
        group = &groups_[gi];
        break;
      }
    }
    if (group != nullptr) break;
    // New group: governed memory — the key tuple plus one AggState per
    // aggregate, retained until the groups are finalized.
    const int64_t group_bytes =
        key_src.ByteWidth() +
        static_cast<int64_t>(aggs_.size() * sizeof(AggState));
    Status charge = coalesce_charges ? group_reserve_.Take(ctx, group_bytes)
                                     : ctx->ChargeMemory(group_bytes);
    if (charge.ok()) {
      charged_bytes_ += group_bytes;
      group_index_.Insert(h);
      StagedGroup fresh;
      fresh.pos = input_pos;
      fresh.sub = input_sub;
      fresh.hash = h;
      fresh.key = key_src.Materialize();
      fresh.states.resize(aggs_.size());
      groups_.push_back(std::move(fresh));
      group = &groups_.back();
      break;
    }
    // A governed breach turns into victim-partition eviction when a spill
    // area is attached (sequential mode only; parallel replicas fail the
    // gang and the service retries sequentially with spilling).
    if (charge.code() != StatusCode::kResourceExhausted ||
        !ctx->spill_enabled() || parallel) {
      return charge;
    }
    if (agg_spill_ == nullptr) {
      agg_spill_ =
          std::make_unique<AggSpill>(ctx->spill_manager(), aggs_.size());
      MAGICDB_RETURN_IF_ERROR(agg_spill_->Start(ctx));
    }
    // Every partition already evicted and one group still does not fit:
    // eviction cannot help any further.
    if (agg_spill_->AllSpilled()) return charge;
    // Evicting rebuilds groups_/group_index_, so retry the lookup (the
    // victim may or may not be this row's partition).
    MAGICDB_RETURN_IF_ERROR(agg_spill_->EvictNextPartition(
        &groups_, &group_index_, &charged_bytes_, ctx));
  }
  return fold(group);
}

Status HashAggregateOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  groups_.clear();
  group_index_.Clear();
  next_group_ = 0;
  aggregated_ = false;
  charged_bytes_ = 0;
  agg_spill_.reset();
  group_reserve_ = BatchReserve();
  const bool parallel = shared_ != nullptr;

  MAGICDB_RETURN_IF_ERROR(child_->Open(ctx));
  std::vector<int> key_identity(group_by_.size());
  for (size_t i = 0; i < group_by_.size(); ++i) {
    key_identity[i] = static_cast<int>(i);
  }
  int64_t input_bytes = 0;
  int64_t rows_seen = 0;
  int64_t input_pos = -1;
  int64_t input_sub = 0;
  // Batch input drain: expressions (group keys + aggregate arguments)
  // evaluate vectorized, memory charges coalesce, and cancellation is
  // checked per batch. In parallel mode the rank tags ride in the batches —
  // except below a Filter Join, whose position provider is inherently
  // row-at-a-time, so that chain stays on the row drain.
  const bool batch_input =
      ctx->batch_size() > 0 && !(parallel && pos_filter_join_ != nullptr);
  if (batch_input) {
    RowBatch in(static_cast<int32_t>(ctx->batch_size()));
    // Operand views resolve plain-column keys and arguments to zero-copy
    // pointers into the input batch; the scratch vectors fill in only for
    // computed expressions. Views alias `in`, so the row loop below copies
    // key values out rather than moving them (two keys may reference the
    // same column, and BatchRowByteWidth also reads the input row).
    std::vector<std::vector<Value>> key_vals(group_by_.size());
    std::vector<std::vector<uint8_t>> key_errs(group_by_.size());
    std::vector<std::vector<Value>> agg_vals(aggs_.size());
    std::vector<std::vector<uint8_t>> agg_errs(aggs_.size());
    std::vector<BatchOperand> key_ops(group_by_.size());
    std::vector<BatchOperand> agg_ops(aggs_.size());
    bool ieof = false;
    while (!ieof) {
      MAGICDB_RETURN_IF_ERROR(child_->NextBatch(&in, &ieof));
      const std::vector<int32_t>* sel =
          in.sel_active() ? &in.selection() : nullptr;
      const int32_t n =
          sel ? static_cast<int32_t>(sel->size()) : in.num_rows();
      if (n > 0) {
        if (parallel && !in.has_ranks()) {
          return Status::Internal(
              "parallel aggregation requires rank-tagged batches");
        }
        for (size_t i = 0; i < group_by_.size(); ++i) {
          ctx->counters().exprs_evaluated += n;
          Status first_error;
          ResolveBatchOperand(*group_by_[i], in, &key_vals[i], &key_errs[i],
                              &first_error, &key_ops[i]);
          MAGICDB_RETURN_IF_ERROR(first_error);
        }
        for (size_t a = 0; a < aggs_.size(); ++a) {
          if (aggs_[a].func == AggFunc::kCountStar) continue;
          ctx->counters().exprs_evaluated += n;
          Status first_error;
          ResolveBatchOperand(*aggs_[a].arg, in, &agg_vals[a], &agg_errs[a],
                              &first_error, &agg_ops[a]);
          MAGICDB_RETURN_IF_ERROR(first_error);
        }
      }
      for (int32_t k = 0; k < n; ++k) {
        const int32_t r = sel ? (*sel)[k] : k;
        ++rows_seen;
        MAGICDB_FAILPOINT("exec.aggregate.build");
        if (parallel) {
          const int64_t p = in.pos()[static_cast<size_t>(r)];
          if (p == input_pos) {
            ++input_sub;  // same driving position: next emission index
          } else {
            input_pos = p;
            input_sub = 0;
          }
        } else {
          input_pos = rows_seen - 1;
          input_sub = 0;
        }
        input_bytes += BatchRowByteWidth(in, r);
        // Group keys hash and compare straight from the operand views; the
        // key Tuple materializes only when a new group is created.
        const OperandKeySource key_src{&key_ops, static_cast<size_t>(r)};
        ctx->counters().hash_operations += 1;
        const uint64_t h = key_src.Hash();
        MAGICDB_RETURN_IF_ERROR(DispatchRow(
            ctx, key_src, h, input_pos, input_sub, parallel,
            /*coalesce_charges=*/true,
            [&](StagedGroup* g) { return FoldPreEvaluated(agg_ops, r, g); }));
      }
      // One cancellation check per batch replaces the per-1024-rows cadence
      // of the row drain.
      MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    }
    group_reserve_.ReleaseHeadroom(ctx);
  } else {
    while (true) {
      Tuple row;
      bool eof = false;
      MAGICDB_RETURN_IF_ERROR(child_->Next(&row, &eof));
      if (eof) break;
      // Build-loop cancellation checkpoint, mirroring the scan's
      // page-boundary cadence: a child pipeline whose rows are expensive
      // (filter-join probes, wide expressions) must not push cancellation
      // latency past one block of input rows.
      if ((++rows_seen & 1023) == 0) {
        MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
      }
      MAGICDB_FAILPOINT("exec.aggregate.build");
      if (parallel) {
        const int64_t p = pos_filter_join_ != nullptr
                              ? pos_filter_join_->last_probe_global_pos()
                              : pos_scan_->last_global_row();
        if (p == input_pos) {
          ++input_sub;  // same driving position: next emission index
        } else {
          input_pos = p;
          input_sub = 0;
        }
      } else {
        // Sequential rank: the input row index. Monotone, so groups_ in
        // first-seen order is already sorted by (pos, sub) — the order the
        // spill merge (if engaged) reproduces.
        input_pos = rows_seen - 1;
        input_sub = 0;
      }
      input_bytes += TupleByteWidth(row);
      // Compute the group key.
      Tuple key;
      key.reserve(group_by_.size());
      for (const ExprPtr& g : group_by_) {
        ctx->counters().exprs_evaluated += 1;
        MAGICDB_ASSIGN_OR_RETURN(Value v, g->Eval(row));
        key.push_back(std::move(v));
      }
      ctx->counters().hash_operations += 1;
      const uint64_t h = HashTupleColumns(key, key_identity);
      MAGICDB_RETURN_IF_ERROR(DispatchRow(
          ctx, TupleKeySource{&key}, h, input_pos, input_sub, parallel,
          /*coalesce_charges=*/false,
          [&](StagedGroup* g) { return Accumulate(row, g); }));
    }
  }
  MAGICDB_RETURN_IF_ERROR(child_->Close());

  if (!parallel) {
    if (agg_spill_ != nullptr) {
      // Out of core: evict the remaining resident partitions too, so the
      // re-aggregation passes start from an (almost) empty tracker — the
      // resident set can sit just under the limit, and keeping it charged
      // while a partition's groups are rebuilt would double-count nearly
      // the whole budget. Rank metadata rides along in the records, so the
      // merge still emits global first-seen order. Real page I/O was
      // charged by the spill files, so the heuristic below is skipped.
      while (!agg_spill_->AllSpilled()) {
        MAGICDB_RETURN_IF_ERROR(agg_spill_->EvictNextPartition(
            &groups_, &group_index_, &charged_bytes_, ctx));
      }
      MAGICDB_RETURN_IF_ERROR(agg_spill_->BuildOutput(ctx));
      aggregated_ = true;
      return Status::OK();
    }
    // Input over the memory budget: charge the predicted Grace partitioning
    // passes, mirroring the hash-join spill model.
    if (input_bytes > ctx->memory_budget_bytes()) {
      const int64_t passes =
          SpillPasses(static_cast<double>(input_bytes),
                      static_cast<double>(ctx->memory_budget_bytes()));
      const int64_t pages = (input_bytes + CostConstants::kPageSizeBytes - 1) /
                            CostConstants::kPageSizeBytes;
      ctx->counters().pages_written += pages * passes;
      ctx->counters().pages_read += pages * passes;
    }
    // Scalar aggregate over empty input still yields one row.
    if (group_by_.empty() && groups_.empty()) {
      StagedGroup scalar;
      scalar.states.resize(aggs_.size());
      groups_.push_back(std::move(scalar));
    }
    if (!feedback_key_.empty()) {
      MAGICDB_RETURN_IF_ERROR(ctx->RecordCardinality(
          feedback_key_, "aggregate_build", feedback_est_groups_,
          static_cast<double>(groups_.size()), /*exact=*/true,
          /*can_trigger=*/false));
    }
    group_index_.Clear();  // emission walks groups_ only
    aggregated_ = true;
    return Status::OK();
  }

  // Parallel: every worker contributes the scalar group even over an empty
  // input slice, so the merged result has exactly one row (zero states
  // combine as the identity). The INT64_MAX rank sorts it after any real
  // first-seen rank, so a worker that did see input decides the group's
  // position — and with no input anywhere, the single row still emerges.
  if (group_by_.empty() && groups_.empty()) {
    StagedGroup scalar;
    scalar.pos = std::numeric_limits<int64_t>::max();
    scalar.hash = HashTupleColumns(Tuple{}, key_identity);
    scalar.states.resize(aggs_.size());
    groups_.push_back(std::move(scalar));
  }
  shared_->AddInputBytes(input_bytes);
  for (StagedGroup& g : groups_) {
    shared_->Stage(worker_, std::move(g));
  }
  groups_.clear();
  group_index_.Clear();
  // Barrier with the other replicas, then merge the one partition this
  // worker owns; the merged groups (sorted by first-seen rank) are what
  // Next() emits. The Grace spill charge is settled inside, exactly once.
  MAGICDB_RETURN_IF_ERROR(shared_->MergeOwnPartition(worker_, ctx, &groups_));
  aggregated_ = true;
  return Status::OK();
}

Status HashAggregateOp::Next(Tuple* out, bool* eof) {
  MAGICDB_CHECK(aggregated_);
  if (agg_spill_ != nullptr) {
    StagedGroup g;
    bool has_group = false;
    MAGICDB_RETURN_IF_ERROR(agg_spill_->NextGroup(&g, &has_group, ctx_));
    if (!has_group) {
      *eof = true;
      return Status::OK();
    }
    last_group_pos_ = g.pos;
    last_group_sub_ = g.sub;
    Tuple result = std::move(g.key);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      MAGICDB_ASSIGN_OR_RETURN(Value v, Finalize(aggs_[a], g.states[a]));
      result.push_back(std::move(v));
    }
    ctx_->counters().tuples_processed += 1;
    *out = std::move(result);
    *eof = false;
    return Status::OK();
  }
  if (next_group_ >= groups_.size()) {
    *eof = true;
    return Status::OK();
  }
  const StagedGroup& g = groups_[next_group_++];
  last_group_pos_ = g.pos;
  last_group_sub_ = g.sub;
  Tuple result = g.key;
  for (size_t a = 0; a < aggs_.size(); ++a) {
    MAGICDB_ASSIGN_OR_RETURN(Value v, Finalize(aggs_[a], g.states[a]));
    result.push_back(std::move(v));
  }
  ctx_->counters().tuples_processed += 1;
  *out = std::move(result);
  *eof = false;
  return Status::OK();
}

Status HashAggregateOp::NextBatch(RowBatch* out, bool* eof) {
  MAGICDB_CHECK(aggregated_);
  // The out-of-core output path streams merged groups from spill partitions
  // one at a time; the row adapter is the natural fit there.
  if (agg_spill_ != nullptr) return Operator::NextBatch(out, eof);
  out->ResetForWrite(schema_.num_columns());
  if (shared_ != nullptr) out->EnableRanks();
  while (!out->full() && next_group_ < groups_.size()) {
    const StagedGroup& g = groups_[next_group_++];
    last_group_pos_ = g.pos;
    last_group_sub_ = g.sub;
    Tuple result = g.key;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      MAGICDB_ASSIGN_OR_RETURN(Value v, Finalize(aggs_[a], g.states[a]));
      result.push_back(std::move(v));
    }
    ctx_->counters().tuples_processed += 1;
    out->AppendTuple(std::move(result));
    if (out->has_ranks()) {
      out->pos().push_back(g.pos);
      out->sub().push_back(g.sub);
    }
  }
  *eof = next_group_ >= groups_.size();
  return Status::OK();
}

Status HashAggregateOp::Close() {
  // Release, not just empty: a pooled plan instance keeps no group storage
  // between executions.
  std::vector<StagedGroup>().swap(groups_);
  group_index_.Clear();
  agg_spill_.reset();
  if (ctx_ != nullptr) {
    group_reserve_.ReleaseHeadroom(ctx_);
    ctx_->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
  }
  return Status::OK();
}

std::string HashAggregateOp::Describe() const {
  std::string s = "HashAggregate(groups=" + std::to_string(group_by_.size()) +
                  ", aggs=[";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) s += ", ";
    s += AggFuncName(aggs_[i].func);
  }
  return s + "])";
}

}  // namespace magicdb
