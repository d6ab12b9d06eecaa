// Out-of-core execution: the spill subsystem end to end.
//
// The contract under test: a governed query whose retained state exceeds
// memory_limit_bytes completes by spilling (Grace hash join, hybrid hash
// aggregation, external merge sort, staged-gather spill) with rows
// byte-identical to an ungoverned run at any DoP, while the MemoryTracker
// peak stays at or under the limit and the magicdb_spill_* counters record
// the I/O. Without a spill area — or with ExecOptions::allow_spill=false —
// the same queries keep failing fast with kResourceExhausted.

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cancellation.h"
#include "src/common/failpoint.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/exec/exec_context.h"
#include "src/server/query_service.h"
#include "src/server/session.h"
#include "src/spill/row_serde.h"
#include "src/spill/run_merge.h"
#include "src/spill/spill_manager.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

// ----- serialization primitives -----

TEST(RowSerdeTest, ValueRoundTripPreservesVariant) {
  const Value values[] = {Value::Null(), Value::Bool(true),
                          Value::Bool(false), Value::Int64(-42),
                          Value::Int64(int64_t{1} << 60), Value::Double(2.5),
                          Value::Double(-0.0), Value::String(""),
                          Value::String(std::string("spill\0bin", 9))};
  std::string buf;
  for (const Value& v : values) spill::AppendValue(&buf, v);
  spill::RecordReader reader(buf.data(), buf.size());
  for (const Value& expected : values) {
    Value got;
    ASSERT_TRUE(reader.ReadValue(&got).ok());
    EXPECT_EQ(got.Compare(expected), 0);
    EXPECT_EQ(got.is_null(), expected.is_null());
  }
  EXPECT_TRUE(reader.done());
}

TEST(RowSerdeTest, TupleRoundTripIsExact) {
  const Tuple t = {Value::Int64(7), Value::Null(), Value::Double(3.25),
                   Value::String("dept")};
  std::string buf;
  spill::AppendTuple(&buf, t);
  spill::RecordReader reader(buf.data(), buf.size());
  Tuple got;
  ASSERT_TRUE(reader.ReadTuple(&got).ok());
  ASSERT_EQ(got.size(), t.size());
  EXPECT_EQ(CompareTuples(got, t), 0);
  EXPECT_TRUE(got[1].is_null());
}

TEST(RowSerdeTest, StagedGroupRoundTripKeepsRankAndStates) {
  StagedGroup g;
  g.pos = 123;
  g.sub = 4;
  g.hash = 0xdeadbeefcafeULL;
  g.key = {Value::Int64(9)};
  AggState st;
  st.count = 5;
  st.sum = 12.5;
  st.isum = 12;
  st.int_sum = false;
  st.min = Value::Int64(1);
  st.max = Value::Int64(9);
  g.states = {st, AggState{}};

  std::string buf;
  spill::AppendStagedGroup(&buf, g);
  spill::RecordReader reader(buf.data(), buf.size());
  StagedGroup got;
  ASSERT_TRUE(reader.ReadStagedGroup(&got).ok());
  EXPECT_EQ(got.pos, g.pos);
  EXPECT_EQ(got.sub, g.sub);
  EXPECT_EQ(got.hash, g.hash);
  EXPECT_EQ(CompareTuples(got.key, g.key), 0);
  ASSERT_EQ(got.states.size(), 2u);
  EXPECT_EQ(got.states[0].count, 5);
  EXPECT_DOUBLE_EQ(got.states[0].sum, 12.5);
  EXPECT_EQ(got.states[0].isum, 12);
  EXPECT_FALSE(got.states[0].int_sum);
  EXPECT_EQ(got.states[0].min.Compare(st.min), 0);
  EXPECT_EQ(got.states[0].max.Compare(st.max), 0);
  EXPECT_EQ(got.states[1].count, 0);
  EXPECT_TRUE(got.states[1].min.is_null());
}

TEST(RowSerdeTest, TruncatedBufferSurfacesStatusNotUB) {
  std::string buf;
  spill::AppendTuple(&buf, {Value::String("long enough to truncate")});
  for (size_t len = 0; len < buf.size(); ++len) {
    spill::RecordReader reader(buf.data(), len);
    Tuple got;
    EXPECT_FALSE(reader.ReadTuple(&got).ok()) << "len=" << len;
  }
}

TEST(SpillPartitionTest, RouterRedistributesAcrossDepths) {
  // The same set of hashes must not all land in one child at the next
  // depth — the property that makes recursive partitioning converge.
  Random rng(99);
  std::vector<uint64_t> hashes;
  for (int i = 0; i < 512; ++i) {
    hashes.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1 << 30)) * 2654435761ULL);
  }
  for (int depth = 0; depth < 4; ++depth) {
    std::vector<int> counts(8, 0);
    for (uint64_t h : hashes) {
      const uint64_t p = SpillPartitionOf(h, depth, 8);
      ASSERT_LT(p, 8u);
      counts[p]++;
    }
    for (int c : counts) EXPECT_LT(c, 512) << "depth " << depth;
  }
}

// ----- shared workload -----

std::string MakeSpillDir() {
  char templ[] = "/tmp/magicdb-spill-test-XXXXXX";
  const char* dir = mkdtemp(templ);
  MAGICDB_CHECK(dir != nullptr);
  return dir;
}

void MakeSpillWorkload(Database* db_out) {
  Database& db = *db_out;
  MAGICDB_CHECK_OK(
      db.Execute("CREATE TABLE Fact (k INT, grp INT, v DOUBLE, pad INT)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Dim (k INT, w DOUBLE)"));
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Skew (c INT, u DOUBLE)"));
  Random rng(17);
  std::vector<Tuple> fact, dim, skew;
  for (int i = 0; i < 4000; ++i) {
    fact.push_back({Value::Int64(i % 1000), Value::Int64(i % 37),
                    Value::Double(rng.NextDouble() * 1e6),
                    Value::Int64(rng.UniformInt(0, 1 << 20))});
    dim.push_back({Value::Int64(i % 1000), Value::Double(i * 0.5)});
  }
  // One giant duplicate key: the build-side shape recursion cannot split.
  for (int i = 0; i < 2000; ++i) {
    skew.push_back({Value::Int64(7), Value::Double(i * 1.0)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("Fact", std::move(fact)));
  MAGICDB_CHECK_OK(db.LoadRows("Dim", std::move(dim)));
  MAGICDB_CHECK_OK(db.LoadRows("Skew", std::move(skew)));
  OptimizerOptions* opts = db.mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

// Each shape retains far more state than the tiny limits below allow: a
// ~64 KB hash-join build, ~1000 aggregate groups, a full-input sort, and
// a 4000-row staged parallel scan.
const char* kSpillJoinQuery =
    "SELECT F.k, F.v, D.w FROM Fact F, Dim D WHERE F.k = D.k";
const char* kSpillAggQuery =
    "SELECT F.k, COUNT(*) AS c, AVG(F.v) AS a FROM Fact F GROUP BY F.k";
const char* kSpillSortQuery =
    "SELECT F.k, F.v FROM Fact F ORDER BY v DESC, k";
const char* kSpillScanQuery = "SELECT F.k, F.grp, F.v FROM Fact F "
                              "WHERE F.pad >= 0";
const char* kSkewJoinQuery =
    "SELECT F.grp, S.u FROM Fact F, Skew S WHERE F.grp = S.c";

constexpr int64_t kTinyLimit = 48 * 1024;

QueryServiceOptions SpillServiceOptions(const std::string& dir) {
  QueryServiceOptions so;
  so.pool_threads = 4;
  so.spill_dir = dir;
  so.spill_batch_bytes = 1024;
  // Small quanta + queues keep the streamed-result charge well under the
  // tiny per-query limits (the sink cannot spill; only operators can).
  so.scheduler_quantum_rows = 128;
  so.stream_queue_rows = 256;
  return so;
}

void ExpectRowsIdentical(const std::vector<Tuple>& a,
                         const std::vector<Tuple>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(CompareTuples(a[i], b[i]), 0) << "row " << i << " differs";
  }
}

// ----- the acceptance matrix -----

TEST(SpillExecutionTest, JoinAggSortCompleteUnderTinyLimitAtAnyDop) {
  Database db;
  MakeSpillWorkload(&db);
  const std::string dir = MakeSpillDir();
  QueryService service(&db, SpillServiceOptions(dir));
  std::unique_ptr<Session> session = service.CreateSession();

  // The pure scan is exercised separately: at dop=1 it retains no state
  // and correctly never spills, and at dop=4 its staged-gather spill reads
  // are deliberately uncharged (the gather merge is a free operator).
  for (const char* query :
       {kSpillJoinQuery, kSpillAggQuery, kSpillSortQuery}) {
    SCOPED_TRACE(query);
    // Ungoverned reference.
    auto baseline = session->Query(query);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_FALSE(baseline->rows.empty());

    for (int dop : {1, 4}) {
      SCOPED_TRACE("dop=" + std::to_string(dop));
      ExecOptions exec;
      exec.dop = dop;
      exec.memory_limit_bytes = kTinyLimit;
      auto governed = session->Query(query, exec);
      ASSERT_TRUE(governed.ok()) << governed.status().ToString();
      ExpectRowsIdentical(governed->rows, baseline->rows);
      EXPECT_GT(governed->counters.spill_bytes_written, 0);
      EXPECT_GT(governed->counters.spill_bytes_read, 0);
    }
  }

  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GT(stats.spill_bytes_written, 0);
  EXPECT_GT(stats.spill_bytes_read, 0);
  EXPECT_GT(stats.spill_files_created, 0);
  EXPECT_GT(stats.spilled_queries, 0);
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  const std::string metrics = service.MetricsText();
  EXPECT_NE(metrics.find("magicdb_spill_bytes_written_total"),
            std::string::npos);
  rmdir(dir.c_str());  // all temp files must be unlinked by now
}

TEST(SpillExecutionTest, PeakStaysUnderLimitWhileSpilling) {
  Database db;
  MakeSpillWorkload(&db);
  const std::string dir = MakeSpillDir();
  QueryService service(&db, SpillServiceOptions(dir));
  std::unique_ptr<Session> session = service.CreateSession();

  for (const char* query : {kSpillJoinQuery, kSpillAggQuery, kSpillSortQuery}) {
    SCOPED_TRACE(query);
    ExecOptions exec;
    exec.memory_limit_bytes = kTinyLimit;
    auto cursor = session->Open(query, exec);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    int64_t rows = 0;
    while (true) {
      auto batch = cursor->Fetch(128);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      if (batch->empty()) break;
      rows += static_cast<int64_t>(batch->size());
    }
    EXPECT_GT(rows, 0);
    EXPECT_GT(cursor->counters().spill_bytes_written, 0);
    EXPECT_GT(cursor->memory_peak_bytes(), 0);
    EXPECT_LE(cursor->memory_peak_bytes(), kTinyLimit);
    ASSERT_TRUE(cursor->Close().ok());
  }
}

TEST(SpillExecutionTest, ParallelBreachDegradesToSequentialSpill) {
  Database db;
  MakeSpillWorkload(&db);
  const std::string dir = MakeSpillDir();
  QueryService service(&db, SpillServiceOptions(dir));
  std::unique_ptr<Session> session = service.CreateSession();

  auto baseline = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(baseline.ok());

  ExecOptions exec;
  exec.dop = 4;
  exec.memory_limit_bytes = kTinyLimit;
  auto governed = session->Query(kSpillJoinQuery, exec);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  ExpectRowsIdentical(governed->rows, baseline->rows);
  // The shared hash build cannot spill, so the gang's breach degrades the
  // query to the sequential out-of-core path — visible in the fallback
  // accounting, not in the results.
  EXPECT_EQ(governed->used_dop, 1);
  EXPECT_NE(governed->parallel_fallback_reason.find("memory pressure"),
            std::string::npos)
      << governed->parallel_fallback_reason;
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.parallel_fallbacks, 1);
  EXPECT_EQ(stats.used_gang_slots, 0);
}

TEST(SpillExecutionTest, ParallelScanSpillsStagedRowsAndStaysParallel) {
  Database db;
  MakeSpillWorkload(&db);
  const std::string dir = MakeSpillDir();
  QueryService service(&db, SpillServiceOptions(dir));
  std::unique_ptr<Session> session = service.CreateSession();

  ExecOptions wide;
  wide.dop = 4;
  auto baseline = session->Query(kSpillScanQuery, wide);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->used_dop, 4);

  ExecOptions governed = wide;
  governed.memory_limit_bytes = kTinyLimit;
  auto spilled = session->Query(kSpillScanQuery, governed);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  // Staged gather rows overflow to per-worker spill files; the gang itself
  // completes, so the query keeps its parallelism.
  EXPECT_EQ(spilled->used_dop, 4);
  ExpectRowsIdentical(spilled->rows, baseline->rows);
  EXPECT_GT(spilled->counters.spill_bytes_written, 0);
}

// ----- opting out -----

TEST(SpillExecutionTest, AllowSpillFalseKeepsVerbatimResourceExhausted) {
  Database db;
  MakeSpillWorkload(&db);

  // Reference failure from a service with no spill area at all.
  Status no_spill_area;
  {
    QueryServiceOptions so;
    so.pool_threads = 2;
    QueryService service(&db, so);
    std::unique_ptr<Session> session = service.CreateSession();
    ExecOptions exec;
    exec.memory_limit_bytes = kTinyLimit;
    // Robust against a spill area injected via MAGICDB_TEST_SPILL_DIR
    // (the chaos build): the reference must stay a hard failure.
    exec.allow_spill = false;
    auto r = session->Query(kSpillAggQuery, exec);
    ASSERT_FALSE(r.ok());
    no_spill_area = r.status();
    EXPECT_EQ(no_spill_area.code(), StatusCode::kResourceExhausted);
  }

  // Same failure — same code, same message — when a spill area exists but
  // the query opted out.
  const std::string dir = MakeSpillDir();
  QueryService service(&db, SpillServiceOptions(dir));
  std::unique_ptr<Session> session = service.CreateSession();
  for (int dop : {1, 4}) {
    SCOPED_TRACE("dop=" + std::to_string(dop));
    ExecOptions exec;
    exec.dop = dop;
    exec.memory_limit_bytes = kTinyLimit;
    exec.allow_spill = false;
    auto r = session->Query(kSpillAggQuery, exec);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(r.status().ToString(), no_spill_area.ToString());
  }
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.spilled_queries, 0);
  EXPECT_EQ(stats.spill_bytes_written, 0);
  EXPECT_EQ(stats.active_queries, 0);
}

// ----- governor boundary semantics -----

TEST(SpillExecutionTest, LimitExactlyAtPeakSucceedsWithoutSpilling) {
  Database db;
  MakeSpillWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  auto drain = [&](int64_t limit, int64_t* peak) -> Status {
    ExecOptions exec;
    exec.memory_limit_bytes = limit;
    // The boundary semantics under test are the hard-failure ones, even
    // when the chaos build injects a spill area via MAGICDB_TEST_SPILL_DIR.
    exec.allow_spill = false;
    auto cursor = session->Open(kSpillAggQuery, exec);
    if (!cursor.ok()) return cursor.status();
    while (true) {
      auto batch = cursor->Fetch(512);
      if (!batch.ok()) {
        cursor->Close();
        return batch.status();
      }
      if (batch->empty()) break;
    }
    *peak = cursor->memory_peak_bytes();
    return cursor->Close();
  };

  // Sequential execution is deterministic, so a rerun with the limit set to
  // the observed peak charges exactly the same bytes — and a limit equal to
  // the peak must succeed (the governor rejects only charges that would
  // exceed the limit).
  int64_t peak = 0;
  ASSERT_TRUE(drain(256 * 1024 * 1024, &peak).ok());
  ASSERT_GT(peak, 0);
  int64_t rerun_peak = 0;
  Status at_peak = drain(peak, &rerun_peak);
  ASSERT_TRUE(at_peak.ok()) << at_peak.ToString();
  EXPECT_EQ(rerun_peak, peak);
  // One byte less must fail.
  int64_t unused = 0;
  Status below = drain(peak - 1, &unused);
  ASSERT_FALSE(below.ok());
  EXPECT_EQ(below.code(), StatusCode::kResourceExhausted);
}

TEST(SpillExecutionTest, ZeroRowInputsSucceedUnderMinimalLimit) {
  Database db;
  MakeSpillWorkload(&db);
  const std::string dir = MakeSpillDir();
  QueryService service(&db, SpillServiceOptions(dir));
  std::unique_ptr<Session> session = service.CreateSession();

  // Every operator shape, but the predicate filters out every row before
  // any state is retained: nothing to charge, nothing to spill.
  const char* zero_row_queries[] = {
      "SELECT F.k, F.v, D.w FROM Fact F, Dim D "
      "WHERE F.k = D.k AND F.pad < 0 AND D.w < 0",
      "SELECT F.k, COUNT(*) AS c FROM Fact F WHERE F.pad < 0 GROUP BY F.k",
      "SELECT F.k FROM Fact F WHERE F.pad < 0 ORDER BY k",
  };
  for (const char* query : zero_row_queries) {
    SCOPED_TRACE(query);
    ExecOptions exec;
    exec.memory_limit_bytes = 512;
    auto r = session->Query(query, exec);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->rows.empty());
    EXPECT_EQ(r->counters.spill_bytes_written, 0);
  }
}

// ----- recursive partitioning -----

TEST(SpillExecutionTest, RecursiveRepartitioningSplitsOversizedPartitions) {
  Database db;
  MakeSpillWorkload(&db);
  // A unique-key self join with a ~768 KB build side: against a 48 KB
  // limit, every depth-0 partition (~96 KB) is itself over the in-memory
  // headroom and must be re-split at depth 1 (~12 KB) before it fits. The
  // depth recorded by the partition sets proves the recursive path ran —
  // the initial Grace split is depth 0.
  MAGICDB_CHECK_OK(db.Execute("CREATE TABLE Big (k INT, u INT)"));
  std::vector<Tuple> big;
  for (int i = 0; i < 49152; ++i) {
    big.push_back({Value::Int64(i % 4000), Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db.LoadRows("Big", std::move(big)));

  const std::string dir = MakeSpillDir();
  QueryServiceOptions so = SpillServiceOptions(dir);
  // Small write buffers keep the leaf-run merge frames (one per output
  // run) comfortably inside the limit even with 64 depth-1 partitions.
  so.spill_batch_bytes = 256;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  const char* query = "SELECT B.k, C.u FROM Big B, Big C WHERE B.u = C.u";
  auto baseline = session->Query(query);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_EQ(baseline->rows.size(), 49152u);

  ExecOptions exec;
  exec.memory_limit_bytes = kTinyLimit;
  auto governed = session->Query(query, exec);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  ExpectRowsIdentical(governed->rows, baseline->rows);
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_GE(stats.spill_recursion_depth_max, 1) << service.MetricsText();
  EXPECT_GT(stats.spill_partitions_opened, 8) << service.MetricsText();
}

TEST(SpillExecutionTest, SingleGiantKeyExhaustsRecursionAndFailsCleanly) {
  Database db;
  MakeSpillWorkload(&db);
  const std::string dir = MakeSpillDir();
  QueryServiceOptions so = SpillServiceOptions(dir);
  // Small write buffers: the limit below must leave room for the
  // repartitioning machinery itself, so the failure comes from the
  // recursion bound rather than an unfittable buffer reservation.
  so.spill_batch_bytes = 256;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  // Every Skew row hashes identically, so recursive partitioning can never
  // shrink the oversized partition; the recursion bound turns an infinite
  // regress into a clean kResourceExhausted.
  ExecOptions exec;
  exec.memory_limit_bytes = 12 * 1024;
  auto r = session->Query(kSkewJoinQuery, exec);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("recursion depth"), std::string::npos)
      << r.status().ToString();

  // The failure is clean: no leaked admission state, and the same query
  // still succeeds ungoverned on the same service.
  ServiceStats stats = service.StatsSnapshot();
  EXPECT_EQ(stats.active_queries, 0);
  EXPECT_EQ(stats.used_gang_slots, 0);
  auto ok = session->Query(kSkewJoinQuery);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_FALSE(ok->rows.empty());
}

// ----- spilling converges at any limit above the floor -----

// The benchmark's analytic_spill shapes (GROUP BY did, age; an Emp self
// join; ORDER BY sal DESC, eid) on a 100k-row Emp with its value ranges, at
// DoP 1 with the default 16 KiB spill frames. At 1 MiB every merge fits one
// pass; this sweep goes below it.
void MakeEmpWorkload(Database* db) {
  MAGICDB_CHECK_OK(
      db->Execute("CREATE TABLE Emp (eid INT, did INT, sal DOUBLE, age INT)"));
  Random rng(11);
  std::vector<Tuple> emp;
  for (int64_t e = 0; e < 100000; ++e) {
    emp.push_back({Value::Int64(e), Value::Int64(rng.UniformInt(0, 999)),
                   Value::Double(50000.0 + rng.UniformInt(0, 99999)),
                   Value::Int64(20 + rng.UniformInt(0, 49))});
  }
  MAGICDB_CHECK_OK(db->LoadRows("Emp", std::move(emp)));
  OptimizerOptions* opts = db->mutable_optimizer_options();
  opts->enable_nested_loops = false;
  opts->enable_index_nested_loops = false;
  opts->enable_sort_merge = false;
}

TEST(SpillExecutionTest, LimitSweepConvergesAboveFloor) {
  Database db;
  MakeEmpWorkload(&db);
  const std::string dir = MakeSpillDir();
  QueryServiceOptions so;
  so.pool_threads = 2;
  so.spill_dir = dir;
  // The result queue charges the same limit and cannot spill.
  so.scheduler_quantum_rows = 256;
  so.stream_queue_rows = 256;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  SpillConfig defaults;
  defaults.dir = dir;
  const int64_t floor = SpillManager(defaults).floor_bytes();
  EXPECT_LE(floor, 512 * 1024);

  const char* queries[] = {
      "SELECT E.did, E.age, COUNT(*) AS n, SUM(E.sal) AS s FROM Emp E "
      "WHERE E.sal < 68000 GROUP BY E.did, E.age",
      "SELECT A.eid, A.sal, B.age FROM Emp A, Emp B WHERE A.eid = B.eid "
      "AND A.age < 43 AND B.sal < 95000",
      "SELECT E.eid, E.sal, E.age FROM Emp E WHERE E.sal < 115000 "
      "ORDER BY sal DESC, eid",
  };
  for (const char* query : queries) {
    SCOPED_TRACE(query);
    auto baseline = session->Query(query);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    for (int64_t kib : {128, 256, 384, 512, 768}) {
      const int64_t limit = kib * 1024;
      SCOPED_TRACE("limit=" + std::to_string(limit) +
                   " floor=" + std::to_string(floor));
      ExecOptions exec;
      exec.memory_limit_bytes = limit;
      auto cursor = session->Open(query, exec);
      ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
      std::vector<Tuple> rows;
      Status status;
      while (true) {
        auto batch = cursor->Fetch(256);
        if (!batch.ok()) {
          status = batch.status();
          break;
        }
        if (batch->empty()) break;
        for (Tuple& t : *batch) rows.push_back(std::move(t));
      }
      EXPECT_LE(cursor->memory_peak_bytes(), limit);
      if (status.ok()) {
        ExpectRowsIdentical(rows, baseline->rows);
        EXPECT_GT(cursor->counters().spill_bytes_written, 0);
      } else {
        // Below the floor the documented answer is kResourceExhausted
        // naming it; at or above it no query fails.
        EXPECT_LT(limit, floor) << status.ToString();
        EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
        EXPECT_NE(status.message().find(std::to_string(floor)),
                  std::string::npos)
            << status.ToString();
      }
      cursor->Close();
    }
  }
  rmdir(dir.c_str());  // every spill file was unlinked
}

// ----- bounded merge fan-in -----

// One merge record: a rank with many duplicates across runs, plus the
// record's origin so the stable tie-break by run order is observable.
struct MergeRecord {
  int64_t rank = 0;
  int64_t id = 0;
};
struct MergeOrder {
  using Head = MergeRecord;
  static bool Less(const MergeRecord& a, const MergeRecord& b) {
    return a.rank < b.rank;
  }
  static Status Read(std::string_view record, MergeRecord* r) {
    spill::RecordReader reader(record.data(), record.size());
    MAGICDB_RETURN_IF_ERROR(reader.ReadI64(&r->rank));
    return reader.ReadI64(&r->id);
  }
  static void Write(const MergeRecord& r, std::string* out) {
    spill::AppendI64(out, r.rank);
    spill::AppendI64(out, r.id);
  }
};

int CountFiles(const std::string& dir) {
  int n = 0;
  DIR* d = opendir(dir.c_str());
  MAGICDB_CHECK(d != nullptr);
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(d);
  return n;
}

// 40 runs of 60 records with ranks in [0, 50) — every rank appears in many
// runs — plus a 30-record resident run charged kResidentBytes.
constexpr int kMergeRuns = 40;
constexpr int kMergeRunRecords = 60;
constexpr int kResidentRecords = 30;
constexpr int64_t kResidentBytes = 100;

// Adds the file runs; returns the resident run, charged to `ctx`.
std::vector<MergeRecord> AddMergeInputs(SpillManager* mgr,
                                        RunMerge<MergeOrder>* merge,
                                        ExecContext* ctx) {
  Random rng(7);
  auto sorted_ranks = [&](int n) {
    std::vector<int64_t> ranks;
    for (int j = 0; j < n; ++j) ranks.push_back(rng.UniformInt(0, 49));
    std::sort(ranks.begin(), ranks.end());
    return ranks;
  };
  for (int r = 0; r < kMergeRuns; ++r) {
    auto file = std::make_unique<SpillFile>(mgr, "test-run");
    std::string record;
    int j = 0;
    for (int64_t rank : sorted_ranks(kMergeRunRecords)) {
      record.clear();
      MergeOrder::Write({rank, r * 1000 + j++}, &record);
      MAGICDB_CHECK_OK(file->Append(record, ctx));
    }
    MAGICDB_CHECK_OK(file->FinishWrite(ctx));
    merge->AddRun(std::move(file));
  }
  std::vector<MergeRecord> resident;
  int j = 0;
  for (int64_t rank : sorted_ranks(kResidentRecords)) {
    resident.push_back({rank, kMergeRuns * 1000 + j++});
  }
  MAGICDB_CHECK_OK(ctx->ChargeMemory(kResidentBytes));
  return resident;
}

struct MergeRun {
  Status status;
  std::vector<std::pair<int64_t, int64_t>> records;  // (rank, id)
  int64_t resident_charged = 0;
  int64_t merge_bytes_written = 0;
  int files_while_open = 0;
  int64_t used_at_start = 0;
  int64_t used_at_end = 0;
};

// Merges the inputs under `limit` bytes, on top of `held` bytes of other
// state (limit 0 = ungoverned). Reads at most `max_records` (-1 = all)
// before closing; `cancel` fires the query's token before Start.
MergeRun RunMergeUnder(const std::string& dir, int64_t limit, int64_t held,
                       int max_records = -1, bool cancel = false) {
  SpillConfig config;
  config.dir = dir;
  config.batch_bytes = 256;
  auto mgr = std::make_shared<SpillManager>(config);
  auto tracker = std::make_shared<MemoryTracker>(limit);
  ExecContext ctx;
  ctx.set_memory_tracker(tracker);
  ctx.set_spill_manager(mgr);
  auto token = std::make_shared<CancelToken>();
  ctx.set_cancel_token(token);
  MAGICDB_CHECK_OK(ctx.ChargeMemory(held));
  MergeRun out;
  out.used_at_start = tracker->used_bytes();
  {
    RunMerge<MergeOrder> merge(mgr, MergeOrder{});
    std::vector<MergeRecord> resident = AddMergeInputs(mgr.get(), &merge, &ctx);
    out.resident_charged = kResidentBytes;
    const int64_t written = ctx.counters().spill_bytes_written;
    if (cancel) token->Cancel();
    out.status = merge.Start(&ctx, std::move(resident), &out.resident_charged);
    out.merge_bytes_written = ctx.counters().spill_bytes_written - written;
    out.files_while_open = CountFiles(dir);
    if (out.status.ok()) EXPECT_EQ(out.files_while_open, merge.runs());
    while (out.status.ok() &&
           (max_records < 0 ||
            static_cast<int>(out.records.size()) < max_records)) {
      MergeRecord r;
      bool has = false;
      MAGICDB_CHECK_OK(merge.Next(&r, &has, &ctx));
      if (!has) break;
      out.records.emplace_back(r.rank, r.id);
    }
    ctx.ReleaseMemory(out.resident_charged);
  }
  // Closed: every run file, intermediate ones included, is unlinked and
  // every frame reservation returned.
  EXPECT_EQ(CountFiles(dir), 0);
  out.used_at_end = tracker->used_bytes();
  return out;
}

// Room for three 256-byte frames beside 500 held bytes and the resident
// run: F = 2, before and after the resident run is written out.
constexpr int64_t kHeldBytes = 500;
constexpr int64_t kFanInTwoLimit = kHeldBytes + kResidentBytes + 3 * 256 + 100;

TEST(RunMergeTest, FanInTwoMatchesSinglePassRecordForRecord) {
  const std::string dir = MakeSpillDir();
  const MergeRun single = RunMergeUnder(dir, 0, 0);
  ASSERT_TRUE(single.status.ok()) << single.status.ToString();
  ASSERT_EQ(single.records.size(),
            size_t{kMergeRuns * kMergeRunRecords + kResidentRecords});
  // Ascending rank; ties in run order (the resident run last), then file
  // order — which is ascending id, as ids encode (run, position).
  EXPECT_TRUE(std::is_sorted(single.records.begin(), single.records.end()));
  EXPECT_EQ(single.merge_bytes_written, 0);  // one pass, nothing rewritten
  EXPECT_EQ(single.resident_charged, kResidentBytes);  // stayed in memory
  EXPECT_EQ(single.files_while_open, kMergeRuns);
  EXPECT_EQ(single.used_at_end, single.used_at_start);

  // The 40 runs do not fit one pass, so the resident run is written out
  // (its charge released) and the 41 runs are merged two at a time down
  // to two.
  const MergeRun tight = RunMergeUnder(dir, kFanInTwoLimit, kHeldBytes);
  ASSERT_TRUE(tight.status.ok()) << tight.status.ToString();
  EXPECT_GT(tight.merge_bytes_written, 0);
  EXPECT_EQ(tight.resident_charged, 0);
  EXPECT_EQ(tight.files_while_open, 2);
  EXPECT_EQ(tight.records, single.records);
  EXPECT_EQ(tight.used_at_end, tight.used_at_start);
  rmdir(dir.c_str());
}

TEST(RunMergeTest, EarlyCloseAndCancelLeaveNoFilesOrCharge) {
  const std::string dir = MakeSpillDir();
  // RunMergeUnder checks the directory is empty after each close.
  const MergeRun early = RunMergeUnder(dir, kFanInTwoLimit, kHeldBytes, 10);
  ASSERT_TRUE(early.status.ok()) << early.status.ToString();
  EXPECT_EQ(early.records.size(), 10u);
  EXPECT_EQ(early.used_at_end, early.used_at_start);

  const MergeRun cancelled =
      RunMergeUnder(dir, kFanInTwoLimit, kHeldBytes, -1, /*cancel=*/true);
  EXPECT_EQ(cancelled.status.code(), StatusCode::kCancelled)
      << cancelled.status.ToString();
  EXPECT_EQ(cancelled.used_at_end, cancelled.used_at_start);
  rmdir(dir.c_str());
}

TEST(RunMergeTest, FramesThatCannotFitNameTheFloor) {
  const std::string dir = MakeSpillDir();
  // Two frames of room: not even a two-way pass plus its write buffer.
  const MergeRun starved =
      RunMergeUnder(dir, kHeldBytes + kResidentBytes + 2 * 256, kHeldBytes);
  EXPECT_EQ(starved.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(starved.status.message().find("(2 * fanout + 3) * batch_bytes"),
            std::string::npos)
      << starved.status.ToString();
  EXPECT_EQ(starved.used_at_end, starved.used_at_start);
  rmdir(dir.c_str());
}

#ifdef MAGICDB_FAILPOINTS

// ----- fault injection on the spill I/O path -----

TEST(SpillChaosTest, FaultsAtSpillSitesFailQueryButLeakNothing) {
  Database db;
  MakeSpillWorkload(&db);
  const std::string dir = MakeSpillDir();
  QueryService service(&db, SpillServiceOptions(dir));
  std::unique_ptr<Session> session = service.CreateSession();

  auto baseline = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(baseline.ok());

  const char* kSpillSites[] = {"spill.write", "spill.read",
                               "spill.partition.open"};
  for (const char* site : kSpillSites) {
    SCOPED_TRACE(site);
    const std::string msg = std::string("chaos: ") + site;
    FailpointConfig config;
    config.inject = Status::Internal(msg);
    config.fire_from_hit = 3;  // let some I/O succeed first
    {
      ScopedFailpoint armed(site, config);
      for (const char* query :
           {kSpillJoinQuery, kSpillAggQuery, kSpillSortQuery}) {
        ExecOptions exec;
        exec.memory_limit_bytes = kTinyLimit;
        auto r = session->Query(query, exec);
        if (!r.ok()) {
          EXPECT_NE(r.status().ToString().find(msg), std::string::npos)
              << query << ": " << r.status().ToString();
        }
      }
    }
    EXPECT_GT(FailpointRegistry::Instance().Site(site)->hits(), 0)
        << site << " was never executed";

    ServiceStats stats = service.StatsSnapshot();
    EXPECT_EQ(stats.active_queries, 0);
    EXPECT_EQ(stats.used_gang_slots, 0);
    EXPECT_EQ(stats.open_cursors, 0);

    // Disarmed, the same spilling query works again — and the fault did
    // not strand temp files that block a later cleanup.
    ExecOptions exec;
    exec.memory_limit_bytes = kTinyLimit;
    auto after = session->Query(kSpillJoinQuery, exec);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectRowsIdentical(after->rows, baseline->rows);
  }
}

// ----- fault injection on the catalog-mutation path -----

TEST(DdlChaosTest, FaultedDdlLeavesCatalogConsistent) {
  Database db;
  MakeSpillWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);
  std::unique_ptr<Session> session = service.CreateSession();

  auto baseline = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(baseline.ok());

  struct Case {
    const char* site;
    const char* ddl;
  };
  const Case kCases[] = {
      {"server.ddl.execute", "CREATE TABLE Chaos1 (a INT)"},
      {"db.ddl.create_table", "CREATE TABLE Chaos2 (a INT)"},
      {"db.ddl.create_view",
       "CREATE VIEW ChaosV AS SELECT F.k FROM Fact F WHERE F.pad > 0"},
      {"catalog.ddl.epoch_bump", "CREATE TABLE Chaos3 (a INT)"},
  };
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.site);
    const int64_t epoch_before = db.catalog()->ddl_epoch();
    const std::string msg = std::string("chaos: ") + c.site;
    FailpointConfig config;
    config.inject = Status::Internal(msg);
    {
      ScopedFailpoint armed(c.site, config);
      Status s = service.Execute(c.ddl);
      ASSERT_FALSE(s.ok());
      EXPECT_NE(s.ToString().find(msg), std::string::npos) << s.ToString();
    }
    // The fault must have been all-or-nothing: no epoch bump, no
    // half-registered object, and cached plans still valid.
    EXPECT_EQ(db.catalog()->ddl_epoch(), epoch_before);
    auto again = session->Query(kSpillJoinQuery);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    ExpectRowsIdentical(again->rows, baseline->rows);

    // Disarmed, the identical DDL succeeds (the name was never taken) and
    // bumps the epoch exactly once.
    MAGICDB_CHECK_OK(service.Execute(c.ddl));
    EXPECT_GT(db.catalog()->ddl_epoch(), epoch_before);
    ServiceStats stats = service.StatsSnapshot();
    EXPECT_EQ(stats.active_queries, 0);
    EXPECT_EQ(stats.used_gang_slots, 0);
    EXPECT_EQ(stats.open_cursors, 0);
  }

  // Queries keep working against the mutated catalog.
  auto after = session->Query(kSpillJoinQuery);
  ASSERT_TRUE(after.ok());
  ExpectRowsIdentical(after->rows, baseline->rows);
}

TEST(DdlChaosTest, EpochStaysMonotoneUnderFaultedDdlChurn) {
  Database db;
  MakeSpillWorkload(&db);
  QueryServiceOptions so;
  so.pool_threads = 2;
  QueryService service(&db, so);

  FailpointConfig config;
  config.inject = Status::Internal("chaos: ddl coinflip");
  config.probability = 0.5;
  config.seed = 11;
  int64_t last_epoch = db.catalog()->ddl_epoch();
  int successes = 0;
  {
    ScopedFailpoint armed(std::string("catalog.ddl.epoch_bump"), config);
    for (int i = 0; i < 20; ++i) {
      const std::string ddl =
          "CREATE TABLE Churn" + std::to_string(i) + " (a INT)";
      const Status s = service.Execute(ddl);
      const int64_t epoch = db.catalog()->ddl_epoch();
      if (s.ok()) {
        EXPECT_EQ(epoch, last_epoch + 1) << "ddl " << i;
        ++successes;
      } else {
        EXPECT_EQ(epoch, last_epoch) << "ddl " << i;
      }
      last_epoch = epoch;
    }
  }
  EXPECT_GT(successes, 0);
  EXPECT_LT(successes, 20);  // the coinflip must have fired at least once
}

#endif  // MAGICDB_FAILPOINTS

}  // namespace
}  // namespace magicdb
