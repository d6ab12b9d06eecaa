#ifndef MAGICDB_SPILL_SPILL_MANAGER_H_
#define MAGICDB_SPILL_SPILL_MANAGER_H_

/// Out-of-core execution: temp-file lifecycle and global spill accounting.
///
/// A SpillManager owns the configuration of one spill area (directory,
/// write-batch size, partition fanout, recursion bound) and the
/// process-observable counters behind the `magicdb_spill_*` metrics. One
/// manager is shared by every query of a QueryService; SpillFile and
/// SpillPartitionSet objects are created through it and report their I/O
/// back to it. The manager itself performs no I/O.
///
/// Spilling is disabled when the directory is empty — every consumer
/// checks `ExecContext::spill_enabled()` before attempting to spill, so a
/// service without a `spill_dir` keeps the PR-5 behavior: a governed query
/// that outgrows its memory limit fails with kResourceExhausted.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "src/common/cost_counters.h"
#include "src/common/status.h"

namespace magicdb {

struct SpillConfig {
  /// Directory for spill temp files. Empty = spilling disabled.
  std::string dir;
  /// Bytes buffered per open spill file before a frame is written; also the
  /// unit of the read buffer, so it bounds per-file memory either way.
  int64_t batch_bytes = 16 * 1024;
  /// Partitions per recursive partitioning level.
  int fanout = CostConstants::kSpillFanout;
  /// Maximum recursive partitioning depth. A partition that still exceeds
  /// the memory limit after this many splits (e.g. one giant duplicate-key
  /// bucket) fails the query with kResourceExhausted.
  int max_recursion_depth = 6;
  /// Service-wide disk budget (bytes) across every live spill file. A frame
  /// flush that would exceed it fails *that* query with kResourceExhausted
  /// — the requester is the victim, never a bystander — and each file's
  /// charges are released when it is destroyed, so the budget frees as
  /// queries finish. 0 (the default) = unbounded.
  int64_t disk_budget_bytes = 0;
};

class SpillManager {
 public:
  explicit SpillManager(SpillConfig config) : config_(std::move(config)) {
    if (config_.batch_bytes < 256) config_.batch_bytes = 256;
    if (config_.fanout < 2) config_.fanout = 2;
    if (config_.max_recursion_depth < 1) config_.max_recursion_depth = 1;
  }

  bool enabled() const { return !config_.dir.empty(); }
  const SpillConfig& config() const { return config_; }

  /// The smallest per-query memory limit at which spilling can work:
  /// (2 * fanout + 3) * batch_bytes, what a Grace join holds while it
  /// re-partitions one partition pair (two partition sets of write
  /// buffers, the pair's two read frames and its output run's write
  /// buffer). Every other spill step needs less: a merge needs three
  /// frames. A spill buffer reservation that fails names this floor.
  int64_t floor_bytes() const {
    return (2 * config_.fanout + 3) * config_.batch_bytes;
  }

  /// Path for the next spill file: unique within the process, labeled for
  /// debuggability (`magicdb-spill-<pid>-<seq>-<label>.bin`).
  std::string NextFilePath(const std::string& label);

  // --- service-wide disk budget ---

  /// Charges `bytes` of spill-disk usage against the budget before a frame
  /// hits the filesystem. kResourceExhausted (nothing retained) when the
  /// budget would be exceeded; the caller must fail its own query. Always
  /// OK with an unbounded budget. Failpoint site: `spill.budget.charge`.
  Status ChargeDisk(int64_t bytes);

  /// Returns bytes previously charged with ChargeDisk (SpillFile releases
  /// its cumulative charge on destruction, alongside the unlink).
  void ReleaseDisk(int64_t bytes);

  int64_t disk_budget_bytes() const { return config_.disk_budget_bytes; }
  int64_t disk_used_bytes() const {
    return disk_used_.load(std::memory_order_relaxed);
  }
  int64_t disk_budget_rejections() const {
    return disk_budget_rejections_.load(std::memory_order_relaxed);
  }

  // --- global counters (the magicdb_spill_* metrics) ---

  void AddBytesWritten(int64_t n) {
    bytes_written_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddBytesRead(int64_t n) {
    bytes_read_.fetch_add(n, std::memory_order_relaxed);
  }
  void NoteFileCreated() {
    files_created_.fetch_add(1, std::memory_order_relaxed);
  }
  void NotePartitionOpened() {
    partitions_opened_.fetch_add(1, std::memory_order_relaxed);
  }
  void NoteRecursionDepth(int depth) {
    int64_t cur = max_recursion_depth_seen_.load(std::memory_order_relaxed);
    while (depth > cur && !max_recursion_depth_seen_.compare_exchange_weak(
                              cur, depth, std::memory_order_relaxed)) {
    }
  }
  void NoteQuerySpilled() {
    spilled_queries_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }
  int64_t bytes_read() const {
    return bytes_read_.load(std::memory_order_relaxed);
  }
  int64_t files_created() const {
    return files_created_.load(std::memory_order_relaxed);
  }
  int64_t partitions_opened() const {
    return partitions_opened_.load(std::memory_order_relaxed);
  }
  int64_t max_recursion_depth_seen() const {
    return max_recursion_depth_seen_.load(std::memory_order_relaxed);
  }
  int64_t spilled_queries() const {
    return spilled_queries_.load(std::memory_order_relaxed);
  }

 private:
  SpillConfig config_;
  std::atomic<uint64_t> next_file_id_{0};
  std::atomic<int64_t> bytes_written_{0};
  std::atomic<int64_t> bytes_read_{0};
  std::atomic<int64_t> files_created_{0};
  std::atomic<int64_t> partitions_opened_{0};
  std::atomic<int64_t> max_recursion_depth_seen_{0};
  std::atomic<int64_t> spilled_queries_{0};
  std::atomic<int64_t> disk_used_{0};
  std::atomic<int64_t> disk_budget_rejections_{0};
};

/// Deterministic partition router: which of `fanout` partitions a key hash
/// belongs to at recursion `depth`. Each depth remixes the hash with a
/// different constant, so a partition that recurses redistributes its rows
/// instead of landing them all in one child again (identical hashes — one
/// giant duplicate key — are the one case recursion cannot split, which is
/// why the depth bound exists).
uint64_t SpillPartitionOf(uint64_t hash, int depth, int fanout);

/// RAII charge of a fixed byte amount against a query's memory tracker,
/// used for spill I/O buffers (write buffers of a partition set, read
/// buffers of a merge): spilling itself consumes governed memory and must
/// never evade the governor.
class SpillReservation {
 public:
  SpillReservation() = default;
  ~SpillReservation() { Release(); }

  SpillReservation(const SpillReservation&) = delete;
  SpillReservation& operator=(const SpillReservation&) = delete;

  /// Charges `bytes` to `ctx`'s tracker; on kResourceExhausted nothing is
  /// retained and the message names the spill floor
  /// (SpillManager::floor_bytes). `ctx` must outlive the reservation.
  Status Acquire(class ExecContext* ctx, int64_t bytes);
  void Release();

 private:
  class ExecContext* ctx_ = nullptr;
  int64_t bytes_ = 0;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_SPILL_MANAGER_H_
