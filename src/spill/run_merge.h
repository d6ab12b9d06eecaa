#ifndef MAGICDB_SPILL_RUN_MERGE_H_
#define MAGICDB_SPILL_RUN_MERGE_H_

/// The one k-way merge of sorted spill runs, shared by external sort
/// (ranks: sort keys, then input sequence), Grace hash join (probe
/// sequence) and hybrid aggregation (first-seen rank pos, sub).
///
/// An operator supplies only its record order, a type with
///   using Head = ...;   // one decoded record
///   Status Read(std::string_view record, Head* head) const;
///   void Write(const Head& head, std::string* out) const;
///   bool Less(const Head& a, const Head& b) const;  // strict rank order
/// and hands over its sealed runs, each already in rank order. The merge
/// owns the run files, one SpillReservation for its read frames, and the
/// stable tie-break: equal ranks come out in run order, file runs in the
/// order added, then the resident run.
///
/// Bounded fan-in. Each read frame is one batch_bytes of governed memory.
/// Start() takes F = max(2, room / batch_bytes - 1), room being the
/// tracker's limit minus its used bytes: the one frame left over is the
/// write buffer of an intermediate pass, or the consumer's share beside
/// the final pass (the result queue charges the same tracker). While more
/// than F runs remain, F adjacent runs are merged into one new run in
/// their place (raw record bytes are copied, so the output is unchanged)
/// and the inputs are unlinked. Runs that already fit one pass are never
/// rewritten.
///
/// The resident run is a caller's sorted in-memory tail, still charged to
/// the tracker. It stays in memory when the file runs fit one pass beside
/// it; otherwise it is written out as the last run and its charge released.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/statusor.h"
#include "src/exec/exec_context.h"
#include "src/spill/spill_file.h"
#include "src/spill/spill_manager.h"

namespace magicdb {

template <typename Order>
class RunMerge {
 public:
  using Head = typename Order::Head;

  /// `mgr` may be null when every run is resident.
  RunMerge(std::shared_ptr<SpillManager> mgr, Order order)
      : mgr_(std::move(mgr)), order_(std::move(order)) {}

  const Order& order() const { return order_; }
  int64_t runs() const { return static_cast<int64_t>(runs_.size()); }

  /// Appends a sealed run; runs added earlier win rank ties.
  void AddRun(std::unique_ptr<SpillFile> run) {
    runs_.push_back(std::move(run));
  }

  /// Merges down to a final pass that fits the tracker and opens it.
  /// `resident` (in rank order) ranks after every file run on ties;
  /// `*resident_charged` bytes of it are charged, zeroed if it is written
  /// out.
  Status Start(ExecContext* ctx, std::vector<Head> resident = {},
               int64_t* resident_charged = nullptr) {
    resident_ = std::move(resident);
    if (runs_.empty()) return Status::OK();
    const int64_t frame = mgr_->config().batch_bytes;
    if (runs() > FanIn(ctx) && !resident_.empty()) {
      // Release-before-reserve: the run's charge goes back before its
      // write buffer is taken.
      ctx->ReleaseMemory(*resident_charged);
      *resident_charged = 0;
      SpillReservation write_buffer;
      MAGICDB_RETURN_IF_ERROR(write_buffer.Acquire(ctx, frame));
      auto file = std::make_unique<SpillFile>(mgr_.get(), "resident");
      std::string record;
      for (const Head& head : resident_) {
        record.clear();
        order_.Write(head, &record);
        MAGICDB_RETURN_IF_ERROR(file->Append(record, ctx));
      }
      MAGICDB_RETURN_IF_ERROR(file->FinishWrite(ctx));
      AddRun(std::move(file));
      std::vector<Head>().swap(resident_);
    }
    // Each step merges up to F adjacent runs in place, only as many as the
    // excess needs; a pass wraps to the front when it reaches the end.
    const int64_t fan_in = FanIn(ctx);
    for (int64_t i = 0; runs() > fan_in; ++i) {
      if (i + 1 >= runs()) i = 0;
      MAGICDB_RETURN_IF_ERROR(MergeRange(
          i, std::min({fan_in, runs() - fan_in + 1, runs() - i}), ctx));
    }
    MAGICDB_RETURN_IF_ERROR(frames_.Acquire(ctx, runs() * frame));
    return Open(0, runs(), &cursors_, ctx);
  }

  /// Next record in rank order into `*out`; `*has` false at the end, when
  /// the read frames are released. A file run's record is swapped in, so
  /// the cursor decodes its next record into the caller's previous
  /// buffers; a resident one is moved, so nothing stays behind in memory.
  Status Next(Head* out, bool* has, ExecContext* ctx) {
    Cursor* best = Best(&cursors_);
    *has = true;
    if (resident_pos_ < resident_.size() &&
        (best == nullptr || order_.Less(resident_[resident_pos_], best->head))) {
      *out = std::move(resident_[resident_pos_++]);
      return Status::OK();
    }
    if (best == nullptr) {
      *has = false;
      frames_.Release();
      return Status::OK();
    }
    std::swap(*out, best->head);
    return Advance(best, ctx);
  }

 private:
  struct Cursor {
    SpillFile* file = nullptr;
    bool has = false;
    std::string_view record;  // raw bytes of `head`, valid until Advance
    Head head;
  };

  int64_t FanIn(ExecContext* ctx) const {
    const std::shared_ptr<MemoryTracker>& tracker = ctx->memory_tracker();
    if (tracker == nullptr || tracker->limit_bytes() <= 0) return INT64_MAX;
    const int64_t room = tracker->limit_bytes() - tracker->used_bytes();
    return std::max<int64_t>(2, room / mgr_->config().batch_bytes - 1);
  }

  Status Advance(Cursor* c, ExecContext* ctx) {
    MAGICDB_RETURN_IF_ERROR(c->file->NextRecord(&c->record, &c->has, ctx));
    return c->has ? order_.Read(c->record, &c->head) : Status::OK();
  }

  Status Open(int64_t begin, int64_t end, std::vector<Cursor>* cursors,
              ExecContext* ctx) {
    cursors->resize(static_cast<size_t>(end - begin));
    for (int64_t j = begin; j < end; ++j) {
      Cursor& c = (*cursors)[static_cast<size_t>(j - begin)];
      c.file = runs_[static_cast<size_t>(j)].get();
      MAGICDB_RETURN_IF_ERROR(c.file->Rewind());
      MAGICDB_RETURN_IF_ERROR(Advance(&c, ctx));
    }
    return Status::OK();
  }

  /// Lowest rank among live cursors; the earliest run on ties.
  Cursor* Best(std::vector<Cursor>* cursors) const {
    Cursor* best = nullptr;
    for (Cursor& c : *cursors) {
      if (c.has && (best == nullptr || order_.Less(c.head, best->head))) {
        best = &c;
      }
    }
    return best;
  }

  /// Replaces runs [i, i + k) by one run holding their merged records.
  Status MergeRange(int64_t i, int64_t k, ExecContext* ctx) {
    SpillReservation frames;  // k read frames + the new run's write buffer
    MAGICDB_RETURN_IF_ERROR(
        frames.Acquire(ctx, (k + 1) * mgr_->config().batch_bytes));
    std::vector<Cursor> in;
    MAGICDB_RETURN_IF_ERROR(Open(i, i + k, &in, ctx));
    auto out = std::make_unique<SpillFile>(mgr_.get(), "merge");
    int64_t loop = 0;
    while (Cursor* best = Best(&in)) {
      if ((loop++ & 1023) == 0) {
        MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
      }
      MAGICDB_RETURN_IF_ERROR(out->Append(best->record, ctx));
      MAGICDB_RETURN_IF_ERROR(Advance(best, ctx));
    }
    MAGICDB_RETURN_IF_ERROR(out->FinishWrite(ctx));
    runs_[static_cast<size_t>(i)] = std::move(out);
    runs_.erase(runs_.begin() + i + 1, runs_.begin() + i + k);
    return Status::OK();
  }

  const std::shared_ptr<SpillManager> mgr_;
  const Order order_;
  std::vector<std::unique_ptr<SpillFile>> runs_;
  std::vector<Head> resident_;
  size_t resident_pos_ = 0;
  SpillReservation frames_;  // the final pass's read frames
  std::vector<Cursor> cursors_;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_RUN_MERGE_H_
