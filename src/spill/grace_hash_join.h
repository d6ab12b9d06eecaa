#ifndef MAGICDB_SPILL_GRACE_HASH_JOIN_H_
#define MAGICDB_SPILL_GRACE_HASH_JOIN_H_

/// Out-of-core hash join: recursive Grace hash partitioning of build and
/// probe, engaged by HashJoinOp when the build side breaches the query's
/// memory limit and spilling is enabled.
///
/// Protocol (driven by HashJoinOp):
///   1. BeginBuildSpill() — the moment the in-memory build table breaches,
///      its rows are dumped in arrival order into a fanout-way partition
///      set and their memory is released; every later build row goes
///      straight to its partition (AddBuildRow).
///   2. FinishBuild() seals the build partitions.
///   3. The probe input is drained through AddProbeRow(): rows are tagged
///      with their probe sequence number and routed by the same hash to the
///      matching partition (rows whose build partition is empty are
///      dropped — they cannot join).
///   4. FinishProbe() joins the partition pairs one at a time: load one
///      build partition into a charged in-memory table, stream its probe
///      partition, write matches as (seq, joined row) to an output run. A
///      build partition that itself breaches the limit is recursively
///      re-partitioned at depth+1 (both files), up to the configured
///      recursion bound.
///   5. NextOutput() merges the output runs by probe sequence number
///      (RunMerge).
///
/// Determinism: rows of one hash are dumped and reloaded in their original
/// arrival order, so each rebuilt hash chain matches the in-memory chain
/// exactly; each probe row lives in exactly one leaf partition, so
/// its matches land contiguously in one run; merging runs by the strictly
/// increasing probe sequence reproduces the in-memory output order
/// byte-for-byte.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/statusor.h"
#include "src/spill/run_merge.h"
#include "src/spill/spill_file.h"
#include "src/spill/spill_manager.h"
#include "src/spill/spill_partition_set.h"
#include "src/types/tuple.h"

namespace magicdb {

class ExecContext;
class Expr;

class GraceHashJoin {
 public:
  GraceHashJoin(std::shared_ptr<SpillManager> mgr, std::vector<int> outer_keys,
                std::vector<int> inner_keys, const Expr* residual);

  /// Dumps the breached in-memory build rows (in arrival order) to
  /// partitions, releasing their `*charged_bytes` from the tracker and their
  /// storage. The caller drops its index over `rows`.
  Status BeginBuildSpill(ExecContext* ctx, std::vector<Tuple>* rows,
                         int64_t* charged_bytes);

  Status AddBuildRow(uint64_t hash, const Tuple& row, ExecContext* ctx);
  Status FinishBuild(ExecContext* ctx);

  Status AddProbeRow(uint64_t hash, const Tuple& row, ExecContext* ctx);

  /// Seals the probe partitions and joins every partition pair; afterwards
  /// NextOutput streams the merged result.
  Status FinishProbe(ExecContext* ctx);

  Status NextOutput(Tuple* out, bool* eof, ExecContext* ctx);

 private:
  struct Task {
    std::unique_ptr<SpillFile> build;
    std::unique_ptr<SpillFile> probe;
    int depth = 0;
  };
  /// One output record: a joined row tagged with its probe sequence.
  struct Output {
    int64_t seq = 0;
    Tuple row;
  };
  struct Order {
    using Head = Output;
    static bool Less(const Output& a, const Output& b) { return a.seq < b.seq; }
    static Status Read(std::string_view record, Output* o);
    static void Write(const Output& o, std::string* out);
  };

  Status ProcessTask(Task task, std::vector<Task>* stack, ExecContext* ctx);
  Status Repartition(Task task, std::vector<Task>* stack, ExecContext* ctx);

  const std::shared_ptr<SpillManager> mgr_;
  const std::vector<int> outer_keys_;
  const std::vector<int> inner_keys_;
  const Expr* const residual_;

  std::unique_ptr<SpillPartitionSet> build_set_;
  std::unique_ptr<SpillPartitionSet> probe_set_;
  int64_t probe_seq_ = 0;
  RunMerge<Order> merge_;
  std::string scratch_;
};

}  // namespace magicdb

#endif  // MAGICDB_SPILL_GRACE_HASH_JOIN_H_
