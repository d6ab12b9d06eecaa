#include "src/parallel/partitioned_aggregate.h"

#include <algorithm>
#include <utility>

#include "src/common/cost_counters.h"
#include "src/common/failpoint.h"
#include "src/common/hash_table.h"
#include "src/common/logging.h"
#include "src/exec/exec_context.h"

namespace magicdb {

SharedAggregate::SharedAggregate(int num_workers, int64_t memory_budget_bytes)
    : num_workers_(num_workers),
      memory_budget_bytes_(memory_budget_bytes),
      staging_(num_workers),
      staged_barrier_(num_workers) {
  for (auto& per_worker : staging_) per_worker.resize(num_workers);
}

void SharedAggregate::Stage(int worker, StagedGroup group) {
  const int partition = static_cast<int>(group.hash % num_workers_);
  staging_[worker][partition].push_back(std::move(group));
}

void SharedAggregate::AddInputBytes(int64_t bytes) {
  total_input_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

Status SharedAggregate::MergeOwnPartition(int worker, ExecContext* ctx,
                                          std::vector<StagedGroup>* merged) {
  // Injected merge fault fires before the barrier: the failing worker
  // unwinds through worker_fn's abort path, which aborts every barrier and
  // releases the peers — arriving first and then failing would strand them.
  MAGICDB_FAILPOINT("parallel.aggregate.merge");
  // All staging writes happen-before the barrier; afterwards partition
  // `worker` is read by this worker only, so one barrier suffices.
  MAGICDB_RETURN_IF_ERROR(staged_barrier_.ArriveAndWait());

  std::vector<StagedGroup> staged;
  for (int w = 0; w < num_workers_; ++w) {
    auto& src = staging_[w][worker];
    staged.insert(staged.end(), std::make_move_iterator(src.begin()),
                  std::make_move_iterator(src.end()));
    src.clear();
    src.shrink_to_fit();
  }
  // Sequential first-seen order within the partition: ascending first-seen
  // input rank. Combining equal keys in this order also fixes the double
  // summation order deterministically at every DoP.
  std::sort(staged.begin(), staged.end(),
            [](const StagedGroup& a, const StagedGroup& b) {
              return a.pos != b.pos ? a.pos < b.pos : a.sub < b.sub;
            });
  merged->clear();
  merged->reserve(staged.size());
  HashTable index;  // indexes `merged` by entry id
  for (StagedGroup& g : staged) {
    StagedGroup* into = nullptr;
    for (HashTable::EntryId gi : index.Chain(g.hash)) {
      if (CompareTuples((*merged)[gi].key, g.key) == 0) {
        into = &(*merged)[gi];
        break;
      }
    }
    if (into == nullptr) {
      index.Insert(g.hash);
      merged->push_back(std::move(g));
      continue;
    }
    MAGICDB_CHECK(into->states.size() == g.states.size());
    for (size_t a = 0; a < g.states.size(); ++a) {
      into->states[a].CombineFrom(g.states[a]);
    }
  }

  if (worker == 0) {
    // Grace partitioning-pass decision on the *global* input size, charged
    // exactly once (attribution to worker 0 is arbitrary; merged totals
    // are what the single-writer counter contract guarantees).
    const int64_t input_bytes =
        total_input_bytes_.load(std::memory_order_relaxed);
    if (input_bytes > memory_budget_bytes_) {
      const int64_t passes =
          SpillPasses(static_cast<double>(input_bytes),
                      static_cast<double>(memory_budget_bytes_));
      const int64_t pages =
          (input_bytes + CostConstants::kPageSizeBytes - 1) /
          CostConstants::kPageSizeBytes;
      ctx->counters().pages_written += pages * passes;
      ctx->counters().pages_read += pages * passes;
    }
  }
  return Status::OK();
}

void SharedAggregate::Abort(Status status) {
  staged_barrier_.Abort(std::move(status));
}

}  // namespace magicdb
