#include "src/spill/spill_manager.h"

#include <unistd.h>

#include <string>

#include "src/common/failpoint.h"
#include "src/exec/exec_context.h"

namespace magicdb {

std::string SpillManager::NextFilePath(const std::string& label) {
  const uint64_t id = next_file_id_.fetch_add(1, std::memory_order_relaxed);
  std::string name = "magicdb-spill-" + std::to_string(getpid()) + "-" +
                     std::to_string(id);
  if (!label.empty()) name += "-" + label;
  name += ".bin";
  std::string path = config_.dir;
  if (!path.empty() && path.back() != '/') path += '/';
  return path + name;
}

Status SpillManager::ChargeDisk(int64_t bytes) {
  // Chaos site: lets tests inject a budget rejection (or a delay) on the
  // charge path without actually filling a disk.
  MAGICDB_FAILPOINT("spill.budget.charge");
  const int64_t budget = config_.disk_budget_bytes;
  if (budget <= 0) {
    disk_used_.fetch_add(bytes, std::memory_order_relaxed);
    return Status::OK();
  }
  int64_t used = disk_used_.load(std::memory_order_relaxed);
  while (true) {
    if (used + bytes > budget) {
      disk_budget_rejections_.fetch_add(1, std::memory_order_relaxed);
      return Status::ResourceExhausted(
          "spill disk budget exhausted: " + std::to_string(used) +
          " bytes in use + " + std::to_string(bytes) + " requested > budget " +
          std::to_string(budget));
    }
    if (disk_used_.compare_exchange_weak(used, used + bytes,
                                         std::memory_order_relaxed)) {
      return Status::OK();
    }
  }
}

void SpillManager::ReleaseDisk(int64_t bytes) {
  if (bytes > 0) disk_used_.fetch_sub(bytes, std::memory_order_relaxed);
}

uint64_t SpillPartitionOf(uint64_t hash, int depth, int fanout) {
  // splitmix64 finalizer over the hash remixed with a per-depth constant:
  // partitions at depth d+1 are uncorrelated with the split at depth d.
  uint64_t x = hash ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(depth + 1));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x % static_cast<uint64_t>(fanout);
}

Status SpillReservation::Acquire(ExecContext* ctx, int64_t bytes) {
  Status charge = ctx->ChargeMemory(bytes);
  if (!charge.ok()) {
    const SpillManager* mgr = ctx->spill_manager().get();
    if (!charge.IsResourceExhausted() || mgr == nullptr) return charge;
    const SpillConfig& c = mgr->config();
    return Status::ResourceExhausted(
        charge.message() + "; spilling needs a limit of at least " +
        "(2 * fanout + 3) * batch_bytes = (2 * " + std::to_string(c.fanout) +
        " + 3) * " + std::to_string(c.batch_bytes) + " = " +
        std::to_string(mgr->floor_bytes()) + " bytes");
  }
  // Stack on top of any prior acquisition instead of requiring release-first.
  if (ctx_ == nullptr) ctx_ = ctx;
  bytes_ += bytes;
  return Status::OK();
}

void SpillReservation::Release() {
  if (ctx_ != nullptr && bytes_ > 0) {
    ctx_->ReleaseMemory(bytes_);
  }
  bytes_ = 0;
  ctx_ = nullptr;
}

}  // namespace magicdb
