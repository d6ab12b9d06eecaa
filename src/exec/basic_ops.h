#ifndef MAGICDB_EXEC_BASIC_OPS_H_
#define MAGICDB_EXEC_BASIC_OPS_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/hash_table.h"
#include "src/exec/operator.h"
#include "src/expr/expr.h"
#include "src/spill/run_merge.h"

namespace magicdb {

/// Drops tuples failing `predicate` (NULL counts as failing).
class FilterOp final : public Operator {
 public:
  FilterOp(OpPtr child, ExprPtr predicate);

  Status Open(ExecContext* ctx) override;
  Status Next(Tuple* out, bool* eof) override;
  /// Native batch filter: pulls the child's batch into `out` and narrows
  /// its selection vector with a vectorized predicate pass — no copying,
  /// no per-row virtual dispatch. Rank tags ride along untouched.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  ExprPtr predicate_;
  ExecContext* ctx_ = nullptr;
  // Scratch for the vectorized predicate pass, reused across batches.
  std::vector<Value> pred_vals_;
  std::vector<uint8_t> pred_errs_;
};

/// Computes output columns from expressions over the child tuple.
class ProjectOp final : public Operator {
 public:
  ProjectOp(OpPtr child, std::vector<ExprPtr> exprs, Schema schema);

  Status Open(ExecContext* ctx) override;
  Status Next(Tuple* out, bool* eof) override;
  /// Native batch projection: each output column is one BatchEval over the
  /// child batch; the input's selection vector and rank tags copy through.
  Status NextBatch(RowBatch* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  std::vector<ExprPtr> exprs_;
  ExecContext* ctx_ = nullptr;
  // Child batch + per-column value/error scratch for the vectorized path.
  std::unique_ptr<RowBatch> in_batch_;
  std::vector<Value> col_vals_;
  std::vector<uint8_t> col_errs_;
};

/// Hash-based duplicate elimination over whole tuples.
class DistinctOp final : public Operator {
 public:
  explicit DistinctOp(OpPtr child);

  Status Open(ExecContext* ctx) override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  ExecContext* ctx_ = nullptr;
  // Rows emitted so far, in emission order, indexed by hash.
  HashTable seen_index_;
  std::vector<Tuple> seen_rows_;
};

/// Full sort on key expressions. Keys are computed once per tuple; if the
/// input exceeds the context memory budget, the predicted external merge
/// passes are charged (write + read of all pages per pass). The buffered
/// input is governed memory; when it breaches the query's hard limit and
/// spilling is enabled, the sort degrades to an external merge sort: each
/// breach writes the buffer out as one sorted run of (seq, key tuple, row)
/// records — the key tuples travel with the rows, so merging never
/// re-evaluates sort expressions. Output is always one RunMerge over the
/// runs (none in memory) and the final buffer as its resident run, by
/// (keys under their asc/desc flags, then input sequence): the stable
/// order of the in-memory sort, so spilled output is byte-identical.
class SortOp final : public Operator {
 public:
  struct SortKey {
    ExprPtr expr;
    bool ascending = true;
  };

  SortOp(OpPtr child, std::vector<SortKey> keys);

  Status Open(ExecContext* ctx) override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  /// One buffered row with its input sequence and computed key tuple.
  struct Record {
    int64_t seq = 0;
    Tuple key;
    Tuple row;
  };
  struct Order {
    using Head = Record;
    std::vector<bool> ascending;
    int CompareKeys(const Tuple& a, const Tuple& b) const;
    bool Less(const Record& a, const Record& b) const {
      const int c = CompareKeys(a.key, b.key);
      return c < 0 || (c == 0 && a.seq < b.seq);
    }
    static Status Read(std::string_view record, Record* r);
    static void Write(const Record& r, std::string* out) {
      Append(r.seq, r.key, r.row, out);
    }
    static void Append(int64_t seq, const Tuple& key, const Tuple& row,
                       std::string* out);
  };

  /// Buffer positions in rank order.
  std::vector<int64_t> SortIndexes(const std::vector<Tuple>& keys) const;
  /// Writes the buffer out as one sorted run, clears it and releases its
  /// charge.
  Status SpillRun(std::vector<Tuple>* rows, std::vector<Tuple>* keys);

  OpPtr child_;
  std::vector<SortKey> keys_;
  ExecContext* ctx_ = nullptr;
  // Bytes charged for the buffered rows + key tuples; released on Close.
  int64_t charged_bytes_ = 0;
  int64_t base_seq_ = 0;  // input sequence of the buffer's first row
  std::unique_ptr<RunMerge<Order>> merge_;
  Record next_;  // the record Next last returned; its buffers are reused
  std::string scratch_;
};

/// Spools the child on first Open and replays the spool on every
/// (re-)open. Charges page writes when spooling and page reads when
/// replaying — the executor counterpart of ProductionCost_P in Table 1.
class MaterializeOp final : public Operator {
 public:
  explicit MaterializeOp(OpPtr child);

  Status Open(ExecContext* ctx) override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

  /// Spooled rows (valid after Open).
  const std::vector<Tuple>& rows() const { return rows_; }

 private:
  OpPtr child_;
  ExecContext* ctx_ = nullptr;
  bool spooled_ = false;
  std::vector<Tuple> rows_;
  int64_t next_row_ = 0;
  int64_t rows_per_page_ = 1;
};

/// Emits at most `limit` tuples.
class LimitOp final : public Operator {
 public:
  LimitOp(OpPtr child, int64_t limit);

  Status Open(ExecContext* ctx) override;
  Status Next(Tuple* out, bool* eof) override;
  Status Close() override;
  std::string Describe() const override;
  std::vector<const Operator*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_EXEC_BASIC_OPS_H_
