#ifndef MAGICBENCH_WORKLOADS_H_
#define MAGICBENCH_WORKLOADS_H_

// The three workloads of the repository benchmark. Each one is built
// entirely from the seed: the generated tables, the statement texts (query
// constants drawn from the seed), and each session's sequence of
// statements. The program under test only ever sees these generated inputs.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/cost_counters.h"
#include "src/optimizer/optimizer_options.h"
#include "src/types/tuple.h"

namespace magicbench {

/// One generated base table: its DDL, rows, and the hash indexes to build
/// after loading (column lists).
struct TableData {
  std::string name;
  std::string ddl;
  std::vector<magicdb::Tuple> rows;
  std::vector<std::vector<int>> indexes;
};

/// Generated inputs of one set-up: tables (loaded in order), then views.
struct Dataset {
  std::vector<TableData> tables;
  std::vector<std::string> views;
};

/// How a workload's answers are checked.
enum class Gate {
  /// Rows equal, as a multiset, an embedded DoP-1 Database::Run with
  /// magic_mode=kNever (magic must not change answers), and their order
  /// equals an embedded cost-based Run.
  kMagicOracle,
  /// Rows and every CostCounters field byte-identical to an embedded DoP-1
  /// Run (parallel execution must not change answers or work).
  kDopOneIdentity,
  /// Rows byte-identical to an ungoverned in-memory embedded Run, the
  /// memory peak within the query's limit, and spill bytes written on every
  /// template marked as spilling.
  kInMemoryIdentity,
};

/// One statement text of the seeded sequence and its reference answer
/// (filled by the harness before the timed loop).
struct Statement {
  std::string tmpl;
  std::string sql;
  /// kInMemoryIdentity only: the template must spill under the limit.
  bool expect_spill = false;

  int64_t ref_rows = 0;
  uint64_t ref_ordered = 0;
  uint64_t ref_multiset = 0;
  magicdb::CostCounters ref_counters;
};

struct Workload {
  std::string name;
  /// Client sessions, each a closed loop on its own thread.
  int sessions = 1;
  /// Requested degree of parallelism of every query.
  int dop = 1;
  /// Set-ups per run; setup_s is their median, and the last one is kept.
  int setups = 3;
  Gate gate = Gate::kMagicOracle;
  /// Per-query memory limit. Every workload runs governed so that the
  /// memory peak is observable; only analytic_spill sets it low enough to
  /// bind.
  int64_t memory_limit_bytes = 0;
  /// Whether the service gets a spill directory.
  bool spill = false;
  /// Per-query result-queue high-water mark (rows); 0 = service default.
  /// The queue is charged to the memory limit, so a tight limit needs a
  /// short queue to leave room for the operators.
  int64_t stream_queue_rows = 0;
  /// Rows a producer pumps per scheduler quantum; 0 = service default.
  /// Buffered rows are bounded by the queue plus one quantum.
  int64_t scheduler_quantum_rows = 0;
  magicdb::OptimizerOptions optimizer;

  std::function<Dataset()> make_dataset;
  std::vector<Statement> statements;
  /// One pass of each session's seeded sequence (indexes into
  /// `statements`). A session cycles its pass until the run ends; the
  /// first pass is the exact-count fingerprint.
  std::vector<std::vector<int>> sequences;
  /// Statements run once per set-up to warm the service (plan cache,
  /// allocator, pool).
  std::vector<int> warmup;

  /// Writes beside reads: session 0 appends a batch into `ingest_table`
  /// through QueryService::LoadRows after every `write_every` queries
  /// (0 = no writes). No query reads that table.
  int write_every = 0;
  std::string ingest_table;
  std::function<std::vector<magicdb::Tuple>(int64_t batch)> make_ingest_batch;
};

/// Names of all workloads, in the order BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// Builds workload `name` from `seed`; `dop` is the parallelism analytic
/// requests (min(4, nproc)). Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, int dop,
                  Workload* out);

}  // namespace magicbench

#endif  // MAGICBENCH_WORKLOADS_H_
