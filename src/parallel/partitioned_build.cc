#include "src/parallel/partitioned_build.h"

#include <algorithm>

#include "src/common/cost_counters.h"
#include "src/common/logging.h"
#include "src/exec/exec_context.h"

namespace magicdb {

// ----- CancellableBarrier -----

CancellableBarrier::CancellableBarrier(int parties) : parties_(parties) {
  MAGICDB_CHECK(parties >= 1);
}

Status CancellableBarrier::ArriveAndWait() {
  std::unique_lock<std::mutex> lock(mu_);
  if (aborted_) return abort_status_;
  arrived_ += 1;
  if (arrived_ == parties_) {
    arrived_ = 0;
    generation_ += 1;
    cv_.notify_all();
    return Status::OK();
  }
  const int64_t gen = generation_;
  cv_.wait(lock, [&] { return aborted_ || generation_ != gen; });
  return aborted_ ? abort_status_ : Status::OK();
}

void CancellableBarrier::Abort(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_) return;
  aborted_ = true;
  abort_status_ = std::move(status);
  cv_.notify_all();
}

// ----- SharedHashBuild -----

SharedHashBuild::SharedHashBuild(int num_workers, int64_t memory_budget_bytes)
    : num_workers_(num_workers),
      memory_budget_bytes_(memory_budget_bytes),
      staging_(num_workers),
      partitions_(num_workers),
      staged_barrier_(num_workers),
      built_barrier_(num_workers) {
  for (auto& per_worker : staging_) per_worker.resize(num_workers);
}

void SharedHashBuild::Stage(int worker, int64_t pos, uint64_t hash,
                            Tuple row) {
  const int partition = static_cast<int>(hash % num_workers_);
  staging_[worker][partition].push_back({pos, hash, std::move(row)});
}

Status SharedHashBuild::FinishStaging(int worker, ExecContext* ctx) {
  MAGICDB_RETURN_IF_ERROR(staged_barrier_.ArriveAndWait());
  // Build the owned partition: gather this partition's staged rows from
  // every worker, restore sequential scan order, insert. No counters are
  // charged here — the hash work was charged when the rows were staged.
  std::vector<StagedRow> rows;
  for (int w = 0; w < num_workers_; ++w) {
    auto& src = staging_[w][worker];
    rows.insert(rows.end(), std::make_move_iterator(src.begin()),
                std::make_move_iterator(src.end()));
    src.clear();
    src.shrink_to_fit();
  }
  std::sort(rows.begin(), rows.end(),
            [](const StagedRow& a, const StagedRow& b) { return a.pos < b.pos; });
  Partition& partition = partitions_[worker];
  partition.rows.reserve(rows.size());
  for (StagedRow& r : rows) {
    partition.index.Insert(r.hash);
    partition.rows.push_back(std::move(r.row));
  }
  if (worker == 0) {
    // Grace spill decision on the *global* build size, charged exactly once
    // (attribution to worker 0 is arbitrary; merged totals are what the
    // single-writer counter contract guarantees).
    const int64_t build_bytes =
        total_build_bytes_.load(std::memory_order_relaxed);
    if (build_bytes > memory_budget_bytes_) {
      spilled_ = true;
      spill_passes_.store(
          SpillPasses(static_cast<double>(build_bytes),
                      static_cast<double>(memory_budget_bytes_)),
          std::memory_order_relaxed);
      const int64_t build_pages =
          (build_bytes + CostConstants::kPageSizeBytes - 1) /
          CostConstants::kPageSizeBytes;
      const int64_t passes = spill_passes_.load(std::memory_order_relaxed);
      ctx->counters().pages_written += build_pages * passes;
      ctx->counters().pages_read += build_pages * passes;
    }
  }
  return built_barrier_.ArriveAndWait();
}

void SharedHashBuild::ChargeProbeBytes(ExecContext* ctx, int64_t bytes) {
  const int64_t before = probe_bytes_.fetch_add(bytes,
                                                std::memory_order_relaxed);
  const int64_t pages =
      (before + bytes) / CostConstants::kPageSizeBytes -
      before / CostConstants::kPageSizeBytes;
  if (pages > 0) {
    const int64_t passes = spill_passes_.load(std::memory_order_relaxed);
    ctx->counters().pages_written += pages * passes;
    ctx->counters().pages_read += pages * passes;
  }
}

void SharedHashBuild::Abort(Status status) {
  staged_barrier_.Abort(status);
  built_barrier_.Abort(std::move(status));
}

// ----- SharedFilterJoin -----

SharedFilterJoin::SharedFilterJoin(int num_workers)
    : num_workers_(num_workers),
      staging_(num_workers),
      deduped_(num_workers),
      staged_barrier_(num_workers),
      deduped_barrier_(num_workers),
      inner_barrier_(num_workers) {
  for (auto& per_worker : staging_) per_worker.resize(num_workers);
}

void SharedFilterJoin::StageKey(int worker, int64_t pos, uint64_t hash,
                                Tuple key) {
  const int partition = static_cast<int>(hash % num_workers_);
  staging_[worker][partition].push_back({pos, hash, std::move(key)});
}

void SharedFilterJoin::AddProductionRows(int64_t rows, int64_t bytes) {
  total_production_rows_.fetch_add(rows, std::memory_order_relaxed);
  total_production_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

Status SharedFilterJoin::StagingDone() {
  return staged_barrier_.ArriveAndWait();
}

Status SharedFilterJoin::DedupPartition(int worker) {
  std::vector<StagedRow> rows;
  for (int w = 0; w < num_workers_; ++w) {
    auto& src = staging_[w][worker];
    rows.insert(rows.end(), std::make_move_iterator(src.begin()),
                std::make_move_iterator(src.end()));
    src.clear();
    src.shrink_to_fit();
  }
  // First occurrence wins, in sequential production order — identical to
  // the order a single-threaded distinct projection emits keys.
  std::sort(rows.begin(), rows.end(),
            [](const StagedRow& a, const StagedRow& b) { return a.pos < b.pos; });
  // `seen` indexes the surviving keys in `out` by entry id.
  HashTable seen;
  std::vector<StagedRow>& out = deduped_[worker];
  for (StagedRow& r : rows) {
    bool dup = false;
    for (HashTable::EntryId id : seen.Chain(r.hash)) {
      if (CompareTuples(out[id].row, r.row) == 0) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    seen.Insert(r.hash);
    out.push_back(std::move(r));
  }
  return deduped_barrier_.ArriveAndWait();
}

std::vector<Tuple> SharedFilterJoin::TakeOrderedKeys() {
  std::vector<StagedRow> all;
  for (auto& partition : deduped_) {
    all.insert(all.end(), std::make_move_iterator(partition.begin()),
               std::make_move_iterator(partition.end()));
    partition.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const StagedRow& a, const StagedRow& b) { return a.pos < b.pos; });
  std::vector<Tuple> keys;
  keys.reserve(all.size());
  for (StagedRow& r : all) keys.push_back(std::move(r.row));
  return keys;
}

Status SharedFilterJoin::InnerBarrier() {
  return inner_barrier_.ArriveAndWait();
}

void SharedFilterJoin::Abort(Status status) {
  staged_barrier_.Abort(status);
  deduped_barrier_.Abort(status);
  inner_barrier_.Abort(std::move(status));
}

}  // namespace magicdb
