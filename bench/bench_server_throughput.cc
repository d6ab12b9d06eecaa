// Closed-loop throughput of the query service (src/server): N sessions,
// each on its own thread, firing a mixed statement workload back-to-back
// at one shared QueryService. Reports QPS, p50/p95/p99 query latency (from
// the service's own histogram), and the plan-cache hit rate, at per-query
// DoP 1, 2 and 4.
//
// A second section exercises the streaming cursor path: one session drains
// a large scan through Session::Open/Cursor::Fetch and reports
// time-to-first-row vs time-to-last-row at DoP 1, 2 and 4, plus the
// observed queue peak and producer park count (the backpressure facts).
// Sequential streams deliver their first row after one scheduler quantum;
// a parallel gang runs to completion inside Open, so its first row costs
// almost the whole query — the gap is the documented trade-off.
//
// Correctness is asserted, not assumed: every session compares each result
// against a sequential Database::Run() baseline captured before the
// service starts — any row or counter divergence aborts the bench.
//
// Throughput is hardware-bound; the header prints the detected core count.
// `--json <path>` additionally writes the table as a JSON document.
// `--smoke` shrinks the workload to a seconds-long CI pass (used by
// scripts/check.sh under TSAN and ASAN to race-test the cursor plumbing).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/server/cursor.h"
#include "src/server/query_service.h"
#include "src/server/session.h"
#include "workloads/json_writer.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

int g_sessions = 4;
int g_queries_per_session = 40;
int g_stream_iters = 3;

const char* kStatements[] = {
    kFigure1Query,
    kFigure1QueryYoungOnly,
    "SELECT E.did, E.sal, D.budget FROM Emp E, Dept D "
    "WHERE E.did = D.did AND E.age < 30 AND D.budget > 100000",
};
constexpr int kNumStatements = 3;

// Streaming workload: a wide scan whose result dwarfs the cursor queue, so
// time-to-first-row genuinely measures streaming (not result size).
const char* kStreamQuery = "SELECT E.did, E.sal, E.age FROM Emp E";

std::string Fmt(double v) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << v;
  return os.str();
}

void CheckIdentical(const QueryResult& base, const QueryResult& got) {
  MAGICDB_CHECK(got.rows.size() == base.rows.size());
  for (size_t i = 0; i < base.rows.size(); ++i) {
    MAGICDB_CHECK(CompareTuples(got.rows[i], base.rows[i]) == 0);
  }
  MAGICDB_CHECK(got.counters.pages_read == base.counters.pages_read);
  MAGICDB_CHECK(got.counters.tuples_processed ==
                base.counters.tuples_processed);
  MAGICDB_CHECK(got.counters.exprs_evaluated == base.counters.exprs_evaluated);
  MAGICDB_CHECK(got.counters.hash_operations == base.counters.hash_operations);
}

struct RunResult {
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double hit_rate = 0.0;
  int64_t morsels_stolen = 0;
};

RunResult RunClosedLoop(Database* db, const std::vector<QueryResult>& baseline,
                        int dop, int64_t batch_size = -1) {
  QueryServiceOptions so;
  so.pool_threads = 4;
  QueryService service(db, so);
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < g_sessions; ++s) {
    sessions.push_back(service.CreateSession());
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(g_sessions);
  for (int s = 0; s < g_sessions; ++s) {
    threads.emplace_back([&, s] {
      Session* session = sessions[s].get();
      ExecOptions exec;
      exec.dop = dop;
      exec.batch_size = batch_size;
      for (int i = 0; i < g_queries_per_session; ++i) {
        const int qi = (s + i) % kNumStatements;
        auto r = session->Query(kStatements[qi], exec);
        MAGICDB_CHECK_OK(r.status());
        CheckIdentical(baseline[qi], *r);
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  ServiceStats stats = service.StatsSnapshot();
  MAGICDB_CHECK(stats.queries_completed == g_sessions * g_queries_per_session);
  RunResult out;
  out.qps = static_cast<double>(stats.queries_completed) / elapsed_s;
  out.p50_us = stats.query_latency_us_p50;
  out.p95_us = stats.query_latency_us_p95;
  out.p99_us = stats.query_latency_us_p99;
  out.hit_rate = static_cast<double>(stats.plan_cache_hits) /
                 static_cast<double>(stats.plan_cache_hits +
                                     stats.plan_cache_misses);
  out.morsels_stolen = stats.morsels_stolen;
  return out;
}

struct StreamResult {
  double ttfr_us = 0.0;  // time to first fetched row
  double ttlr_us = 0.0;  // time to last row (end of stream)
  int used_dop = 1;
  int64_t rows = 0;
  int64_t peak_buffered_rows = 0;
  int64_t producer_parks = 0;
};

StreamResult RunStreaming(Database* db, const QueryResult& baseline, int dop) {
  QueryServiceOptions so;
  so.pool_threads = 4;
  so.scheduler_quantum_rows = 256;
  so.stream_queue_rows = 512;  // tight queue: backpressure must engage
  QueryService service(db, so);
  std::unique_ptr<Session> session = service.CreateSession();
  ExecOptions exec;
  exec.dop = dop;

  StreamResult best;
  for (int iter = 0; iter < g_stream_iters; ++iter) {
    const auto t0 = std::chrono::steady_clock::now();
    auto us_since_t0 = [&t0] {
      return std::chrono::duration<double, std::micro>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    };
    auto cursor = session->Open(kStreamQuery, exec);
    MAGICDB_CHECK_OK(cursor.status());
    std::vector<Tuple> rows;
    rows.reserve(baseline.rows.size());
    double ttfr = 0.0;
    while (true) {
      auto batch = cursor->Fetch(256);
      MAGICDB_CHECK_OK(batch.status());
      if (batch->empty()) break;
      if (rows.empty()) ttfr = us_since_t0();
      for (Tuple& t : *batch) rows.push_back(std::move(t));
    }
    StreamResult out;
    out.ttfr_us = ttfr;
    out.ttlr_us = us_since_t0();
    out.used_dop = cursor->used_dop();
    out.rows = static_cast<int64_t>(rows.size());
    out.peak_buffered_rows = cursor->peak_buffered_rows();
    out.producer_parks = cursor->producer_parks();
    MAGICDB_CHECK(rows.size() == baseline.rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      MAGICDB_CHECK(CompareTuples(rows[i], baseline.rows[i]) == 0);
    }
    // The bounded-memory contract, asserted on every iteration.
    MAGICDB_CHECK(out.peak_buffered_rows <=
                  so.stream_queue_rows + so.scheduler_quantum_rows);
    MAGICDB_CHECK_OK(cursor->Close());
    if (iter == 0 || out.ttlr_us < best.ttlr_us) best = out;
  }
  return best;
}

// ----- overload section -----
//
// The overload-resilience contract, measured: a saturating fleet of
// background sessions must not destroy high-priority latency. Phase A runs
// the two high-priority sessions alone (unloaded p95); phase B adds eight
// background closed-loop sessions with a shed_queue_depth of 4, so the
// service sheds background work (Query()'s retry loop absorbs the
// rejections) while weighted-fair admission keeps the high sessions at the
// head of the line. max_concurrent is 1 in both phases: queries never
// share the CPU, so both phases pay the same head-of-line residual (phase
// A's from the sibling high session) and the comparison isolates what
// overload adds — queueing behind background work — from raw machine
// speed. The gate: loaded high p95 stays within 2x of the unloaded p95
// (floored at 1 ms to keep the ratio meaningful on fast machines).

struct OverloadResult {
  double unloaded_high_p95_us = 0.0;
  double high_p95_us = 0.0;
  double background_p95_us = 0.0;
  int64_t high_completed = 0;
  int64_t background_completed = 0;
  int64_t sheds = 0;
  int64_t shed_retries = 0;
  int64_t submitted = 0;
  double shed_rate = 0.0;
};

double P95Us(std::vector<double>* latencies) {
  if (latencies->empty()) return 0.0;
  std::sort(latencies->begin(), latencies->end());
  return (*latencies)[static_cast<size_t>(0.95 * (latencies->size() - 1))];
}

OverloadResult RunOverload(Database* db,
                           const std::vector<QueryResult>& baseline,
                           bool smoke) {
  constexpr int kHighSessions = 2;
  constexpr int kBackgroundSessions = 8;
  const auto window = std::chrono::milliseconds(smoke ? 200 : 800);

  // Runs `high + background` closed-loop sessions for one window; returns
  // client-observed latencies per class. Background queries may be shed
  // past Query()'s retry budget under saturation — that is the designed
  // outcome, not an error; everything that completes must stay
  // byte-identical.
  auto run_phase = [&](int background_sessions, std::vector<double>* high_lat,
                       std::vector<double>* bg_lat, int64_t* high_done,
                       int64_t* bg_done, ServiceStats* stats_out) {
    QueryServiceOptions so;
    so.pool_threads = 4;
    so.max_concurrent_queries = 1;
    so.shed_queue_depth = 4;
    QueryService service(db, so);
    SessionOptions high_opts;
    high_opts.priority = SessionPriority::kHigh;
    SessionOptions bg_opts;
    bg_opts.priority = SessionPriority::kBackground;

    const int total = kHighSessions + background_sessions;
    std::vector<std::unique_ptr<Session>> sessions;
    std::vector<std::vector<double>> lat(total);
    std::vector<int64_t> done(total, 0);
    for (int s = 0; s < total; ++s) {
      sessions.push_back(
          service.CreateSession(s < kHighSessions ? high_opts : bg_opts));
    }
    const auto deadline = std::chrono::steady_clock::now() + window;
    std::vector<std::thread> threads;
    threads.reserve(total);
    for (int s = 0; s < total; ++s) {
      threads.emplace_back([&, s] {
        Session* session = sessions[s].get();
        const bool is_high = s < kHighSessions;
        int i = 0;
        while (std::chrono::steady_clock::now() < deadline) {
          const int qi = (s + i++) % kNumStatements;
          const auto t0 = std::chrono::steady_clock::now();
          auto r = session->Query(kStatements[qi]);
          if (!r.ok()) {
            // Only background work may be refused, and only by overload.
            MAGICDB_CHECK(!is_high);
            MAGICDB_CHECK(r.status().code() == StatusCode::kUnavailable);
            continue;
          }
          CheckIdentical(baseline[qi], *r);
          lat[s].push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
          ++done[s];
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int s = 0; s < total; ++s) {
      auto* sink = s < kHighSessions ? high_lat : bg_lat;
      sink->insert(sink->end(), lat[s].begin(), lat[s].end());
      *(s < kHighSessions ? high_done : bg_done) += done[s];
    }
    *stats_out = service.StatsSnapshot();
  };

  OverloadResult out;
  // Phase A: high-priority sessions alone — the unloaded latency floor.
  {
    std::vector<double> high_lat, bg_lat;
    int64_t high_done = 0, bg_done = 0;
    ServiceStats stats;
    run_phase(0, &high_lat, &bg_lat, &high_done, &bg_done, &stats);
    out.unloaded_high_p95_us = P95Us(&high_lat);
  }
  // Phase B: the same high sessions under a saturating background fleet.
  {
    std::vector<double> high_lat, bg_lat;
    ServiceStats stats;
    run_phase(kBackgroundSessions, &high_lat, &bg_lat, &out.high_completed,
              &out.background_completed, &stats);
    out.high_p95_us = P95Us(&high_lat);
    out.background_p95_us = P95Us(&bg_lat);
    out.sheds = stats.queries_shed;
    out.shed_retries = stats.query_shed_retries;
    out.submitted = stats.queries_submitted;
    out.shed_rate = static_cast<double>(out.sheds) /
                    static_cast<double>(std::max<int64_t>(
                        1, out.sheds + stats.queries_submitted));
  }
  MAGICDB_CHECK(out.high_completed > 0);
  return out;
}

void Run(const std::string& json_path, bool smoke) {
  if (smoke) {
    g_sessions = 2;
    g_queries_per_session = 4;
    g_stream_iters = 1;
  }
  std::cout << "hardware threads detected: "
            << std::thread::hardware_concurrency() << "\n";
  std::cout << "closed loop: " << g_sessions << " sessions x "
            << g_queries_per_session << " queries, " << kNumStatements
            << " distinct statements, shared pool of 4 workers\n\n";

  Figure1Options opts;
  opts.num_depts = smoke ? 100 : 500;
  opts.emps_per_dept = 20;
  opts.young_frac = 0.05;
  opts.big_frac = 0.05;
  opts.build_indexes = false;
  auto db = MakeFigure1Database(opts);
  auto* options = db->mutable_optimizer_options();
  options->enable_nested_loops = false;
  options->enable_index_nested_loops = false;
  options->enable_sort_merge = false;

  // Sequential ground truth for every statement, before the service runs.
  std::vector<QueryResult> baseline;
  for (const char* q : kStatements) {
    auto r = db->Run(q);
    MAGICDB_CHECK_OK(r.status());
    baseline.push_back(std::move(*r));
  }
  auto stream_baseline = db->Run(kStreamQuery);
  MAGICDB_CHECK_OK(stream_baseline.status());

  TablePrinter table({"dop", "qps", "p50_us", "p95_us", "p99_us",
                      "plan_cache_hit_rate", "morsels_stolen"});
  Json results = Json::Array();
  for (int dop : {1, 2, 4}) {
    const RunResult r = RunClosedLoop(db.get(), baseline, dop);
    table.AddRow({std::to_string(dop), Fmt(r.qps), Fmt(r.p50_us),
                  Fmt(r.p95_us), Fmt(r.p99_us), Fmt(r.hit_rate),
                  std::to_string(r.morsels_stolen)});
    results.Append(Json::Object()
                       .Set("dop", dop)
                       .Set("qps", r.qps)
                       .Set("p50_us", r.p50_us)
                       .Set("p95_us", r.p95_us)
                       .Set("p99_us", r.p99_us)
                       .Set("plan_cache_hit_rate", r.hit_rate)
                       .Set("morsels_stolen", r.morsels_stolen));
  }
  table.Print();
  std::cout << "(every result verified byte-identical to Database::Run(), "
               "counters exact)\n\n";

  // Batch-vs-row section: the same closed loop at DoP 1, with the
  // per-query batch size pinned explicitly — 0 (tuple-at-a-time) vs 1024
  // (vectorized) — isolating the vectorized pump's throughput effect from
  // parallelism and plan differences (the plan-cache key includes the
  // batch size, so the two modes never share a pooled plan instance).
  std::cout << "batch vs row: same closed loop at DoP 1, explicit "
               "batch_size 0 vs 1024\n\n";
  TablePrinter batch_table(
      {"batch_size", "qps", "p50_us", "p95_us", "p99_us"});
  Json batch_results = Json::Array();
  double row_qps = 0.0;
  for (int64_t batch : {int64_t{0}, int64_t{1024}}) {
    const RunResult r = RunClosedLoop(db.get(), baseline, 1, batch);
    if (batch == 0) row_qps = r.qps;
    batch_table.AddRow({std::to_string(batch), Fmt(r.qps), Fmt(r.p50_us),
                        Fmt(r.p95_us), Fmt(r.p99_us)});
    batch_results.Append(Json::Object()
                             .Set("batch_size", batch)
                             .Set("dop", 1)
                             .Set("qps", r.qps)
                             .Set("p50_us", r.p50_us)
                             .Set("p95_us", r.p95_us)
                             .Set("p99_us", r.p99_us)
                             .Set("qps_vs_row", r.qps / std::max(1e-9,
                                                                 row_qps)));
  }
  batch_table.Print();
  std::cout << "(identical rows and counters in both modes)\n\n";

  std::cout << "streaming: " << stream_baseline->rows.size()
            << "-row scan through Session::Open / Cursor::Fetch(256), "
               "queue high-water 512 rows\n\n";
  TablePrinter stream_table({"dop", "used_dop", "rows", "ttfr_us", "ttlr_us",
                             "peak_buffered_rows", "producer_parks"});
  Json stream_results = Json::Array();
  for (int dop : {1, 2, 4}) {
    const StreamResult r = RunStreaming(db.get(), *stream_baseline, dop);
    stream_table.AddRow({std::to_string(dop), std::to_string(r.used_dop),
                         std::to_string(r.rows), Fmt(r.ttfr_us),
                         Fmt(r.ttlr_us), std::to_string(r.peak_buffered_rows),
                         std::to_string(r.producer_parks)});
    stream_results.Append(Json::Object()
                              .Set("dop", dop)
                              .Set("used_dop", r.used_dop)
                              .Set("rows", r.rows)
                              .Set("ttfr_us", r.ttfr_us)
                              .Set("ttlr_us", r.ttlr_us)
                              .Set("peak_buffered_rows", r.peak_buffered_rows)
                              .Set("producer_parks", r.producer_parks));
  }
  stream_table.Print();
  std::cout << "(batches concatenate byte-identical to Database::Run(); "
               "peak buffered rows bounded by queue + one quantum)\n\n";

  // Overload section: high-priority latency under a saturating background
  // fleet, with shedding engaged.
  std::cout << "overload: 2 high-priority sessions, unloaded vs under 8 "
               "background sessions (max_concurrent 1, shed_queue_depth 4)"
               "\n\n";
  const OverloadResult ov = RunOverload(db.get(), baseline, smoke);
  TablePrinter ov_table({"priority", "p95_us", "completed"});
  ov_table.AddRow({"high (unloaded)", Fmt(ov.unloaded_high_p95_us), "-"});
  ov_table.AddRow({"high (overload)", Fmt(ov.high_p95_us),
                   std::to_string(ov.high_completed)});
  ov_table.AddRow({"background (overload)", Fmt(ov.background_p95_us),
                   std::to_string(ov.background_completed)});
  ov_table.Print();
  std::cout << "sheds=" << ov.sheds << " shed_retries=" << ov.shed_retries
            << " shed_rate=" << Fmt(ov.shed_rate)
            << " (asserted: loaded high p95 within 2x of unloaded; "
               "survivors byte-identical)\n";
  MAGICDB_CHECK(ov.high_p95_us <=
                2.0 * std::max(ov.unloaded_high_p95_us, 1000.0));
  Json ov_result =
      Json::Object()
          .Set("sessions_high", 2)
          .Set("sessions_background", 8)
          .Set("max_concurrent_queries", 1)
          .Set("shed_queue_depth", 4)
          .Set("unloaded_high_p95_us", ov.unloaded_high_p95_us)
          .Set("high_p95_us", ov.high_p95_us)
          .Set("background_p95_us", ov.background_p95_us)
          .Set("high_p95_vs_unloaded",
               ov.high_p95_us / std::max(ov.unloaded_high_p95_us, 1e-9))
          .Set("high_completed", ov.high_completed)
          .Set("background_completed", ov.background_completed)
          .Set("sheds", ov.sheds)
          .Set("shed_retries", ov.shed_retries)
          .Set("queries_submitted", ov.submitted)
          .Set("shed_rate", ov.shed_rate);

  if (!json_path.empty()) {
    Json doc = Json::Object()
                   .Set("benchmark", "bench_server_throughput")
                   .Set("hardware_threads",
                        static_cast<int64_t>(
                            std::thread::hardware_concurrency()))
                   .Set("sessions", g_sessions)
                   .Set("queries_per_session", g_queries_per_session)
                   .Set("pool_threads", 4)
                   .Set("results", std::move(results))
                   .Set("batch_vs_row", std::move(batch_results))
                   .Set("streaming", std::move(stream_results))
                   .Set("overload", std::move(ov_result));
    if (WriteJsonFile(json_path, doc)) {
      std::cout << "JSON results written to " << json_path << "\n";
    }
  }
}

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  magicdb::bench::Run(magicdb::bench::JsonPathFromArgs(argc, argv), smoke);
  return 0;
}
