#include "src/exec/basic_ops.h"

#include <algorithm>
#include <cmath>

#include "src/spill/row_serde.h"

namespace magicdb {

// ----- FilterOp -----

FilterOp::FilterOp(OpPtr child, ExprPtr predicate)
    : Operator(child->schema()),
      child_(std::move(child)),
      predicate_(std::move(predicate)) {}

Status FilterOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Status FilterOp::Next(Tuple* out, bool* eof) {
  while (true) {
    MAGICDB_RETURN_IF_ERROR(child_->Next(out, eof));
    if (*eof) return Status::OK();
    ctx_->counters().exprs_evaluated += 1;
    if (EvalPredicate(*predicate_, *out)) return Status::OK();
  }
}

Status FilterOp::NextBatch(RowBatch* out, bool* eof) {
  while (true) {
    MAGICDB_RETURN_IF_ERROR(child_->NextBatch(out, eof));
    const int64_t n = out->ActiveRows();
    if (n > 0) {
      // One predicate evaluation per live input row, as in Next().
      ctx_->counters().exprs_evaluated += n;
      BatchEvalPredicate(*predicate_, out, &pred_vals_, &pred_errs_);
      // Gather the survivors dense: one move-gather here buys every
      // downstream operator full-active bulk loops instead of
      // selection-indexed ones.
      out->CompactActive();
    }
    // Never hand an empty non-final batch upward; keep pulling instead.
    if (out->ActiveRows() > 0 || *eof) return Status::OK();
  }
}

Status FilterOp::Close() { return child_->Close(); }

std::string FilterOp::Describe() const {
  return "Filter(" + predicate_->ToString() + ")";
}

// ----- ProjectOp -----

ProjectOp::ProjectOp(OpPtr child, std::vector<ExprPtr> exprs, Schema schema)
    : Operator(std::move(schema)),
      child_(std::move(child)),
      exprs_(std::move(exprs)) {}

Status ProjectOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Status ProjectOp::Next(Tuple* out, bool* eof) {
  Tuple in;
  MAGICDB_RETURN_IF_ERROR(child_->Next(&in, eof));
  if (*eof) return Status::OK();
  Tuple result;
  result.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    ctx_->counters().exprs_evaluated += 1;
    MAGICDB_ASSIGN_OR_RETURN(Value v, e->Eval(in));
    result.push_back(std::move(v));
  }
  *out = std::move(result);
  return Status::OK();
}

Status ProjectOp::NextBatch(RowBatch* out, bool* eof) {
  if (in_batch_ == nullptr || in_batch_->capacity() != out->capacity()) {
    in_batch_ = std::make_unique<RowBatch>(out->capacity());
  }
  MAGICDB_RETURN_IF_ERROR(child_->NextBatch(in_batch_.get(), eof));
  out->ResetForWrite(static_cast<int>(exprs_.size()));
  const int64_t n = in_batch_->ActiveRows();
  if (n > 0) {
    const size_t rows = static_cast<size_t>(in_batch_->num_rows());
    for (size_t j = 0; j < exprs_.size(); ++j) {
      ctx_->counters().exprs_evaluated += n;
      std::vector<Value>& dst = out->column(static_cast<int>(j));
      Status first_error;
      BatchOperand op;
      ResolveBatchOperand(*exprs_[j], *in_batch_, &col_vals_, &col_errs_,
                          &first_error, &op);
      // Projection is strict: a row error fails the query, as in Next().
      // Only the materializing path can produce one (literals never error,
      // and an out-of-range column ref materializes).
      MAGICDB_RETURN_IF_ERROR(first_error);
      if (op.lit != nullptr) {
        // Broadcast literal. Inactive slots get the value too instead of
        // NULL, which is unobservable: they are outside the selection.
        dst.assign(rows, *op.lit);
      } else if (op.col == &col_vals_) {
        dst.swap(col_vals_);  // materialized scratch: steal, don't copy
      } else {
        // Column view: one bulk copy replaces the per-row kernel.
        dst.assign(op.col->begin(),
                   op.col->begin() + static_cast<ptrdiff_t>(rows));
      }
    }
  } else {
    // BatchEval never ran; shape the (empty or fully-filtered) columns.
    for (size_t j = 0; j < exprs_.size(); ++j) {
      out->column(static_cast<int>(j))
          .assign(static_cast<size_t>(in_batch_->num_rows()), Value());
    }
  }
  out->set_num_rows(in_batch_->num_rows());
  if (in_batch_->sel_active()) {
    out->SetSelection(std::vector<int32_t>(in_batch_->selection()));
  }
  if (in_batch_->has_ranks()) {
    out->EnableRanks();
    out->pos() = in_batch_->pos();
    out->sub() = in_batch_->sub();
  }
  return Status::OK();
}

Status ProjectOp::Close() { return child_->Close(); }

std::string ProjectOp::Describe() const {
  std::string s = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) s += ", ";
    s += exprs_[i]->ToString();
  }
  return s + ")";
}

// ----- DistinctOp -----

DistinctOp::DistinctOp(OpPtr child)
    : Operator(child->schema()), child_(std::move(child)) {}

Status DistinctOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  seen_index_.Clear();
  std::vector<Tuple>().swap(seen_rows_);
  return child_->Open(ctx);
}

Status DistinctOp::Next(Tuple* out, bool* eof) {
  std::vector<int> all(schema_.num_columns());
  for (int i = 0; i < schema_.num_columns(); ++i) all[i] = i;
  while (true) {
    MAGICDB_RETURN_IF_ERROR(child_->Next(out, eof));
    if (*eof) return Status::OK();
    ctx_->counters().hash_operations += 1;
    const uint64_t h = HashTupleColumns(*out, all);
    bool duplicate = false;
    for (HashTable::EntryId id : seen_index_.Chain(h)) {
      if (CompareTuples(seen_rows_[id], *out) == 0) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      seen_index_.Insert(h);
      seen_rows_.push_back(*out);
      return Status::OK();
    }
  }
}

Status DistinctOp::Close() {
  seen_index_.Clear();
  std::vector<Tuple>().swap(seen_rows_);
  return child_->Close();
}

std::string DistinctOp::Describe() const { return "Distinct"; }

// ----- SortOp -----

SortOp::SortOp(OpPtr child, std::vector<SortKey> keys)
    : Operator(child->schema()),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

int SortOp::Order::CompareKeys(const Tuple& a, const Tuple& b) const {
  for (size_t k = 0; k < ascending.size(); ++k) {
    const int c = a[k].Compare(b[k]);
    if (c != 0) return ascending[k] ? c : -c;
  }
  return 0;
}

Status SortOp::Order::Read(std::string_view record, Record* r) {
  spill::RecordReader reader(record.data(), record.size());
  MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&r->seq));
  MAGICDB_RETURN_IF_ERROR(reader.ReadTuple(&r->key));
  return reader.ReadTuple(&r->row);
}

void SortOp::Order::Append(int64_t seq, const Tuple& key, const Tuple& row,
                           std::string* out) {
  spill::AppendI64(out, seq);
  spill::AppendTuple(out, key);
  spill::AppendTuple(out, row);
}

std::vector<int64_t> SortOp::SortIndexes(const std::vector<Tuple>& keys) const {
  std::vector<int64_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    const int c = merge_->order().CompareKeys(keys[a], keys[b]);
    if (c != 0) return c < 0;
    return a < b;  // stable tiebreak: input order
  });
  return order;
}

Status SortOp::SpillRun(std::vector<Tuple>* rows, std::vector<Tuple>* keys) {
  // Release the buffered rows' charge before reserving the write buffer:
  // the breach that triggered this flush left the tracker full, and the
  // rows stream out of memory as the run is written.
  ctx_->ReleaseMemory(charged_bytes_);
  charged_bytes_ = 0;
  SpillManager* mgr = ctx_->spill_manager().get();
  SpillReservation write_buffer;
  MAGICDB_RETURN_IF_ERROR(
      write_buffer.Acquire(ctx_, mgr->config().batch_bytes));
  auto file = std::make_unique<SpillFile>(mgr, "sort-run");
  for (int64_t i : SortIndexes(*keys)) {
    scratch_.clear();
    Order::Append(base_seq_ + i, (*keys)[i], (*rows)[i], &scratch_);
    MAGICDB_RETURN_IF_ERROR(file->Append(scratch_, ctx_));
  }
  MAGICDB_RETURN_IF_ERROR(file->FinishWrite(ctx_));
  merge_->AddRun(std::move(file));
  base_seq_ += static_cast<int64_t>(rows->size());
  rows->clear();
  keys->clear();
  return Status::OK();
}

Status SortOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  charged_bytes_ = 0;
  base_seq_ = 0;
  std::vector<bool> ascending;
  for (const SortKey& sk : keys_) ascending.push_back(sk.ascending);
  merge_ = std::make_unique<RunMerge<Order>>(ctx->spill_manager(),
                                             Order{std::move(ascending)});
  MAGICDB_RETURN_IF_ERROR(child_->Open(ctx));
  std::vector<Tuple> rows;
  std::vector<Tuple> row_keys;
  int64_t bytes = 0;
  int64_t total_rows = 0;
  while (true) {
    Tuple t;
    bool eof = false;
    MAGICDB_RETURN_IF_ERROR(child_->Next(&t, &eof));
    if (eof) break;
    Tuple k;
    k.reserve(keys_.size());
    for (const SortKey& sk : keys_) {
      ctx->counters().exprs_evaluated += 1;
      MAGICDB_ASSIGN_OR_RETURN(Value v, sk.expr->Eval(t));
      k.push_back(std::move(v));
    }
    // Buffered row + its computed key tuple: governed memory.
    const int64_t row_bytes = TupleByteWidth(t) + TupleByteWidth(k);
    Status charge = ctx->ChargeMemory(row_bytes);
    if (!charge.ok()) {
      // A governed breach turns into external merge sort when a spill area
      // is attached: flush the buffer as one sorted run and retry.
      if (charge.code() != StatusCode::kResourceExhausted ||
          !ctx->spill_enabled()) {
        return charge;
      }
      MAGICDB_RETURN_IF_ERROR(SpillRun(&rows, &row_keys));
      // Second failure is final: even one row does not fit.
      MAGICDB_RETURN_IF_ERROR(ctx->ChargeMemory(row_bytes));
    }
    charged_bytes_ += row_bytes;
    bytes += TupleByteWidth(t);
    ++total_rows;
    rows.push_back(std::move(t));
    row_keys.push_back(std::move(k));
  }
  MAGICDB_RETURN_IF_ERROR(child_->Close());

  // Charge n log2 n comparisons as CPU work over the full input.
  if (total_rows > 1) {
    ctx->counters().exprs_evaluated += static_cast<int64_t>(
        static_cast<double>(total_rows) *
        std::ceil(std::log2(static_cast<double>(total_rows))));
  }
  // External passes when the input exceeds the memory budget: one full
  // write + read of the data per predicted pass. Out of core, real page
  // I/O was charged by the spill files instead.
  if (merge_->runs() == 0 && bytes > ctx->memory_budget_bytes()) {
    const int64_t passes =
        SpillPasses(static_cast<double>(bytes),
                    static_cast<double>(ctx->memory_budget_bytes()));
    const int64_t pages = PagesForRows(
        total_rows, std::max<int64_t>(1, bytes / std::max<int64_t>(1, total_rows)));
    ctx->counters().pages_written += pages * passes;
    ctx->counters().pages_read += pages * passes;
  }
  // The final buffer becomes the merge's resident run.
  const std::vector<int64_t> order = SortIndexes(row_keys);
  std::vector<Record> resident(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    resident[i].seq = base_seq_ + order[i];
    resident[i].key = std::move(row_keys[order[i]]);
    resident[i].row = std::move(rows[order[i]]);
  }
  return merge_->Start(ctx, std::move(resident), &charged_bytes_);
}

Status SortOp::Next(Tuple* out, bool* eof) {
  bool has = false;
  MAGICDB_RETURN_IF_ERROR(merge_->Next(&next_, &has, ctx_));
  *eof = !has;
  if (has) std::swap(*out, next_.row);
  return Status::OK();
}

Status SortOp::Close() {
  merge_.reset();
  if (ctx_ != nullptr) {
    ctx_->ReleaseMemory(charged_bytes_);
    charged_bytes_ = 0;
  }
  return Status::OK();
}

std::string SortOp::Describe() const {
  std::string s = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) s += ", ";
    s += keys_[i].expr->ToString();
    if (!keys_[i].ascending) s += " DESC";
  }
  return s + ")";
}

// ----- MaterializeOp -----

MaterializeOp::MaterializeOp(OpPtr child)
    : Operator(child->schema()), child_(std::move(child)) {}

Status MaterializeOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  next_row_ = 0;
  rows_per_page_ = RowsPerPage(schema_.TupleWidthBytes());
  if (!spooled_) {
    MAGICDB_RETURN_IF_ERROR(child_->Open(ctx));
    while (true) {
      Tuple t;
      bool eof = false;
      MAGICDB_RETURN_IF_ERROR(child_->Next(&t, &eof));
      if (eof) break;
      rows_.push_back(std::move(t));
    }
    MAGICDB_RETURN_IF_ERROR(child_->Close());
    ctx->counters().pages_written +=
        PagesForRows(static_cast<int64_t>(rows_.size()),
                     schema_.TupleWidthBytes());
    spooled_ = true;
  }
  return Status::OK();
}

Status MaterializeOp::Next(Tuple* out, bool* eof) {
  if (next_row_ >= static_cast<int64_t>(rows_.size())) {
    *eof = true;
    return Status::OK();
  }
  if (next_row_ % rows_per_page_ == 0) {
    ctx_->counters().pages_read += 1;
  }
  ctx_->counters().tuples_processed += 1;
  *out = rows_[next_row_++];
  *eof = false;
  return Status::OK();
}

Status MaterializeOp::Close() { return Status::OK(); }

std::string MaterializeOp::Describe() const {
  return "Materialize(spooled=" + std::string(spooled_ ? "yes" : "no") + ")";
}

// ----- LimitOp -----

LimitOp::LimitOp(OpPtr child, int64_t limit)
    : Operator(child->schema()), child_(std::move(child)), limit_(limit) {}

Status LimitOp::Open(ExecContext* ctx) {
  produced_ = 0;
  return child_->Open(ctx);
}

Status LimitOp::Next(Tuple* out, bool* eof) {
  if (produced_ >= limit_) {
    *eof = true;
    return Status::OK();
  }
  MAGICDB_RETURN_IF_ERROR(child_->Next(out, eof));
  if (!*eof) ++produced_;
  return Status::OK();
}

Status LimitOp::Close() { return child_->Close(); }

std::string LimitOp::Describe() const {
  return "Limit(" + std::to_string(limit_) + ")";
}

}  // namespace magicdb
