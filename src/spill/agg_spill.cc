#include "src/spill/agg_spill.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/exec/exec_context.h"
#include "src/spill/row_serde.h"

namespace magicdb {

AggSpill::AggSpill(std::shared_ptr<SpillManager> mgr, size_t num_states)
    : mgr_(mgr), num_states_(num_states), merge_(std::move(mgr), Order{}) {}

Status AggSpill::Order::Read(std::string_view record, StagedGroup* g) {
  spill::RecordReader reader(record.data(), record.size());
  return reader.ReadStagedGroup(g);
}

void AggSpill::Order::Write(const StagedGroup& g, std::string* out) {
  spill::AppendStagedGroup(out, g);
}

Status AggSpill::Start(ExecContext* /*ctx*/) {
  partitions_ = std::make_unique<SpillPartitionSet>(mgr_.get(), "agg", 0);
  spilled_.assign(partitions_->fanout(), false);
  // The write-buffer reservation is deferred to the first eviction: at
  // breach time the tracker is full, and the buffers can only fit in the
  // room the evicted groups give back.
  return Status::OK();
}

Status AggSpill::EvictNextPartition(std::vector<StagedGroup>* groups,
                                     HashTable* index, int64_t* charged_bytes,
                                     ExecContext* ctx) {
  MAGICDB_CHECK(!AllSpilled());
  // Pick victims and release their accounting first. The first eviction
  // keeps taking partitions until the freed bytes cover the partition
  // write buffers themselves; later evictions take exactly one.
  const int64_t need =
      reserved_ ? 0
                : static_cast<int64_t>(partitions_->fanout()) *
                      mgr_->config().batch_bytes;
  int64_t released = 0;
  do {
    const int victim = next_victim_++;
    spilled_[victim] = true;
    for (const StagedGroup& g : *groups) {
      if (partitions_->PartitionFor(g.hash) == victim) {
        released += GroupBytes(g);
      }
    }
  } while (released <= need && !AllSpilled());
  ctx->ReleaseMemory(released);
  *charged_bytes -= released;
  if (!reserved_) {
    MAGICDB_RETURN_IF_ERROR(partitions_->Reserve(ctx));
    reserved_ = true;
  }
  std::vector<StagedGroup> kept;
  kept.reserve(groups->size());
  for (StagedGroup& g : *groups) {
    const int p = partitions_->PartitionFor(g.hash);
    if (spilled_[p]) {
      scratch_.clear();
      Order::Write(g, &scratch_);
      MAGICDB_RETURN_IF_ERROR(partitions_->AddTo(p, scratch_, ctx));
    } else {
      kept.push_back(std::move(g));
    }
  }
  groups->swap(kept);
  index->Clear();
  for (const StagedGroup& g : *groups) index->Insert(g.hash);
  return Status::OK();
}

Status AggSpill::AddPartial(const StagedGroup& g, ExecContext* ctx) {
  scratch_.clear();
  Order::Write(g, &scratch_);
  return partitions_->Add(g.hash, scratch_, ctx);
}

Status AggSpill::BuildOutput(ExecContext* ctx) {
  MAGICDB_RETURN_IF_ERROR(partitions_->FinishWrites(ctx));
  std::vector<Task> stack;
  for (int p = 0; p < partitions_->fanout(); ++p) {
    if (partitions_->records(p) == 0) continue;
    Task t;
    t.file = partitions_->TakeFile(p);
    t.depth = 0;
    stack.push_back(std::move(t));
  }
  partitions_.reset();
  while (!stack.empty()) {
    MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    Task task = std::move(stack.back());
    stack.pop_back();
    MAGICDB_RETURN_IF_ERROR(ProcessTask(std::move(task), &stack, ctx));
  }
  return merge_.Start(ctx);
}

Status AggSpill::ProcessTask(Task task, std::vector<Task>* stack,
                             ExecContext* ctx) {
  // Transient buffers: the partition's read frame + the output run's write
  // buffer.
  SpillReservation task_reservation;
  MAGICDB_RETURN_IF_ERROR(
      task_reservation.Acquire(ctx, 2 * mgr_->config().batch_bytes));

  std::vector<StagedGroup> groups;
  HashTable index;  // indexes `groups` by entry id
  int64_t charged = 0;
  MAGICDB_RETURN_IF_ERROR(task.file->Rewind());
  int64_t loop = 0;
  Status status;
  while (true) {
    if ((++loop & 1023) == 0) {
      status = ctx->CheckCancelled();
      if (!status.ok()) break;
    }
    std::string_view record;
    bool has = false;
    status = task.file->NextRecord(&record, &has, ctx);
    if (!status.ok() || !has) break;
    StagedGroup partial;
    status = Order::Read(record, &partial);
    if (status.ok() && partial.states.size() != num_states_) {
      status = Status::Internal("aggregate spill record has " +
                                std::to_string(partial.states.size()) +
                                " states, expected " +
                                std::to_string(num_states_));
    }
    if (!status.ok()) break;
    StagedGroup* group = nullptr;
    for (HashTable::EntryId gi : index.Chain(partial.hash)) {
      if (CompareTuples(groups[gi].key, partial.key) == 0) {
        group = &groups[gi];
        break;
      }
    }
    if (group == nullptr) {
      const int64_t group_bytes = GroupBytes(partial);
      status = ctx->ChargeMemory(group_bytes);
      if (!status.ok()) {
        ctx->ReleaseMemory(charged);
        if (status.code() != StatusCode::kResourceExhausted) return status;
        return Repartition(std::move(task), stack, ctx);
      }
      charged += group_bytes;
      index.Insert(partial.hash);
      groups.push_back(std::move(partial));
      continue;
    }
    // Combine the partial into the existing group, keeping the minimum
    // first-seen rank — re-creations after eviction carry later ranks.
    if (Order::Less(partial, *group)) {
      group->pos = partial.pos;
      group->sub = partial.sub;
    }
    for (size_t a = 0; a < group->states.size(); ++a) {
      group->states[a].CombineFrom(partial.states[a]);
    }
  }
  if (!status.ok()) {
    ctx->ReleaseMemory(charged);
    return status;
  }
  std::sort(groups.begin(), groups.end(), Order::Less);
  if (!groups.empty()) {
    auto out = std::make_unique<SpillFile>(mgr_.get(), "agg-out");
    for (const StagedGroup& g : groups) {
      scratch_.clear();
      Order::Write(g, &scratch_);
      status = out->Append(scratch_, ctx);
      if (!status.ok()) break;
    }
    if (status.ok()) status = out->FinishWrite(ctx);
    if (status.ok()) merge_.AddRun(std::move(out));
  }
  ctx->ReleaseMemory(charged);
  return status;
}

Status AggSpill::Repartition(Task task, std::vector<Task>* stack,
                             ExecContext* ctx) {
  const int next_depth = task.depth + 1;
  if (next_depth >= mgr_->config().max_recursion_depth) {
    return Status::ResourceExhausted(
        "query memory limit exceeded: aggregate spill partition still over "
        "the limit at recursion depth " +
        std::to_string(next_depth));
  }
  auto child =
      std::make_unique<SpillPartitionSet>(mgr_.get(), "agg", next_depth);
  MAGICDB_RETURN_IF_ERROR(child->Reserve(ctx));
  MAGICDB_RETURN_IF_ERROR(task.file->Rewind());
  int64_t loop = 0;
  while (true) {
    if ((++loop & 1023) == 0) {
      MAGICDB_RETURN_IF_ERROR(ctx->CheckCancelled());
    }
    std::string_view record;
    bool has = false;
    MAGICDB_RETURN_IF_ERROR(task.file->NextRecord(&record, &has, ctx));
    if (!has) break;
    StagedGroup partial;
    MAGICDB_RETURN_IF_ERROR(Order::Read(record, &partial));
    MAGICDB_RETURN_IF_ERROR(child->Add(partial.hash, record, ctx));
  }
  MAGICDB_RETURN_IF_ERROR(child->FinishWrites(ctx));
  for (int p = 0; p < child->fanout(); ++p) {
    if (child->records(p) == 0) continue;
    Task t;
    t.file = child->TakeFile(p);
    t.depth = next_depth;
    stack->push_back(std::move(t));
  }
  return Status::OK();
}

}  // namespace magicdb
