#include "magicbench/harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "magicbench/workloads.h"
#include "src/common/logging.h"
#include "src/db/database.h"
#include "src/server/cursor.h"
#include "src/server/query_service.h"
#include "src/server/session.h"

namespace magicbench {
namespace {

using magicdb::CostCounters;
using magicdb::Cursor;
using magicdb::Database;
using magicdb::ExecOptions;
using magicdb::OptimizerOptions;
using magicdb::OptimizerStats;
using magicdb::QueryService;
using magicdb::QueryServiceOptions;
using magicdb::ServiceStats;
using magicdb::Session;
using magicdb::Status;
using magicdb::StatusCode;
using magicdb::Tuple;
using magicdb::Value;

constexpr int64_t kFetchRows = 1024;
// The untraced run completes at least this many queries, so at least ten
// latency samples lie beyond the nearest-rank p95.
constexpr int64_t kMinQueries = 200;
// A stale cursor (DDL landed mid-stream) is re-opened at most this often.
constexpr int kMaxAttempts = 16;
// Error messages kept per session for the report.
constexpr size_t kMaxErrors = 8;

// ----- metric catalogue -----
//
// Every metric with its unit, direction, and the end-to-end metric and
// workload it is expected to move (the `moves` text is copied into each
// run report). BENCHMARK.json lists the same names.

struct MetricDef {
  const char* name;
  const char* unit;
  const char* moves;
};

const MetricDef kEndToEnd[] = {
    {"qps", "1/s", "queries completed per second (median of sub-windows)"},
    {"latency_p50_ms", "ms", "client time from Session::Open to last row"},
    {"latency_p95_ms", "ms", "exact nearest-rank p95 of the same samples"},
    {"ttfr_p50_ms", "ms", "Session::Open to first row from Cursor::Fetch"},
    {"setup_s", "s", "median set-up: DDL, LoadRows+ANALYZE, service, warm-up"},
    {"peak_rss_mb", "MB", "process peak RSS, one process per workload"},
};

const MetricDef kPerLayer[] = {
    {"sql.bind_us_p50", "us", "latency_p50_ms, qps on views_adhoc"},
    {"sql.bind_us_p95", "us", "latency_p50_ms, qps on views_adhoc"},
    {"optimizer.plan_us_p50", "us",
     "latency_p50_ms, latency_p95_ms on views_adhoc"},
    {"optimizer.plan_us_p95", "us",
     "latency_p50_ms, latency_p95_ms on views_adhoc"},
    {"optimizer.join_steps_costed", "count",
     "latency_p50_ms, latency_p95_ms on views_adhoc"},
    {"optimizer.dp_entries", "count",
     "latency_p50_ms, latency_p95_ms on views_adhoc"},
    {"optimizer.filter_joins_costed", "count",
     "latency_p50_ms, latency_p95_ms on views_adhoc"},
    {"optimizer.eq_class_hit_rate", "ratio",
     "latency_p50_ms, latency_p95_ms on views_adhoc"},
    {"optimizer.filter_join_chosen_frac", "ratio",
     "latency_p50_ms on views_adhoc and analytic"},
    {"optimizer.cost_qerror_p50", "ratio", "latency_p95_ms on analytic"},
    {"optimizer.filter_join_cost_qerror_p50", "ratio",
     "latency_p95_ms on analytic"},
    {"server.open_us_p50", "us",
     "ttfr_p50_ms, latency_p50_ms on analytic and views_adhoc"},
    {"server.open_us_p95", "us",
     "ttfr_p50_ms, latency_p50_ms on analytic and views_adhoc"},
    {"server.fetch_us_p50", "us",
     "ttfr_p50_ms, latency_p50_ms on analytic and views_adhoc"},
    {"server.close_us_p50", "us", "latency_p50_ms on views_adhoc"},
    {"server.plan_cache_hit_rate", "ratio", "latency_p95_ms on views_adhoc"},
    {"server.plan_cache_lookups", "count",
     "base of server.plan_cache_hit_rate"},
    {"server.plan_instance_reuses", "count", "latency_p95_ms on views_adhoc"},
    {"server.ddl_retries", "count", "latency_p95_ms on views_adhoc"},
    {"server.cursors_stale", "count", "latency_p95_ms on views_adhoc"},
    {"server.write_us_p50", "us", "latency_p95_ms on views_adhoc"},
    {"server.admission_wait_us_p95_bucketed", "us",
     "latency_p95_ms on views_adhoc"},
    {"server.sched_quanta", "count", "latency_p50_ms on analytic"},
    {"server.producer_parks", "count", "latency_p50_ms on analytic"},
    {"exec.tuples_processed", "count", "qps on analytic and analytic_spill"},
    {"exec.hash_operations", "count", "qps on analytic and analytic_spill"},
    {"exec.exprs_evaluated", "count", "qps on analytic and analytic_spill"},
    {"exec.pages_read", "count", "qps on analytic and analytic_spill"},
    {"exec.stream_us_p50", "us", "latency_p50_ms on analytic_spill"},
    {"exec.memory_peak_bytes_max", "bytes", "peak_rss_mb"},
    {"parallel.used_dop_mean", "dop", "qps, ttfr_p50_ms on analytic"},
    {"parallel.fallbacks", "count", "qps, ttfr_p50_ms on analytic"},
    {"parallel.morsels_stolen", "count", "qps, ttfr_p50_ms on analytic"},
    {"spill.bytes_written", "bytes", "qps, latency_p95_ms on analytic_spill"},
    {"spill.bytes_read", "bytes", "qps, latency_p95_ms on analytic_spill"},
    {"spill.bytes_written_per_input_byte", "ratio",
     "qps, latency_p95_ms on analytic_spill"},
    {"spill.partitions_opened", "count",
     "qps, latency_p95_ms on analytic_spill"},
    {"spill.recursion_depth_max", "count",
     "qps, latency_p95_ms on analytic_spill"},
    {"spill.spilled_query_frac", "ratio",
     "qps, latency_p95_ms on analytic_spill"},
    {"storage.load_s", "s", "setup_s on analytic"},
    {"trace.overhead_frac", "ratio",
     "traced minus untraced latency_p50_ms, over untraced"},
    {"trace.client_self_us_p50", "us",
     "latency_p50_ms: client self time between calls (row hashing)"},
};

// ----- small helpers -----

double NowUs() {
  static const auto kEpoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

/// Exact nearest-rank percentile of the samples (no interpolation, no
/// buckets): the smallest sample with at least q of all samples at or
/// below it. 0 when there are no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double QError(double est, double actual) {
  est = std::max(est, 1e-9);
  actual = std::max(actual, 1e-9);
  return std::max(est / actual, actual / est);
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

uint64_t HashValue(const Value& v) {
  if (v.is_null()) return 0x6e756c6cULL;
  switch (v.type()) {
    case magicdb::DataType::kBool:
      return Mix(1 + static_cast<uint64_t>(v.AsBool()));
    case magicdb::DataType::kInt64:
      return Mix(2 ^ Mix(static_cast<uint64_t>(v.AsInt64())));
    case magicdb::DataType::kDouble: {
      const double d = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof bits);
      return Mix(3 ^ Mix(bits));
    }
    default: {
      uint64_t h = 4;
      for (unsigned char c : v.AsString()) h = Mix(h ^ c);
      return Mix(h ^ v.AsString().size());
    }
  }
}

/// Digest of a row stream, byte for byte: `ordered` depends on row order,
/// `multiset` only on which rows occur how often.
struct RowDigest {
  int64_t rows = 0;
  uint64_t ordered = 0x9e3779b97f4a7c15ULL;
  uint64_t multiset = 0;

  void Add(const Tuple& t) {
    uint64_t h = 0x51ed270b27f3a0c5ULL ^ t.size();
    for (const Value& v : t) h = Mix(h ^ HashValue(v)) + 0x2545f4914f6cdd1dULL;
    ordered = Mix(ordered ^ h);
    multiset += Mix(h + 0x632be59bd9b4e019ULL);
    ++rows;
  }
  void AddAll(const std::vector<Tuple>& rows_in) {
    for (const Tuple& t : rows_in) Add(t);
  }
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Insertion-ordered JSON object writer.
class JsonObject {
 public:
  JsonObject& Num(const std::string& k, double v) {
    return Raw(k, FormatNumber(v));
  }
  JsonObject& Int(const std::string& k, int64_t v) {
    return Raw(k, std::to_string(v));
  }
  JsonObject& Str(const std::string& k, const std::string& v) {
    return Raw(k, JsonString(v));
  }
  JsonObject& Bool(const std::string& k, bool v) {
    return Raw(k, v ? "true" : "false");
  }
  JsonObject& Raw(const std::string& k, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(k) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ----- tracing -----
//
// Spans are recorded by the benchmark's own code around each call into a
// layer, kept in memory per session, and written out when the run ends.
// A query's root span covers its whole client-side life; its children are
// the BindSelect, PlanBound, Open, Fetch and Close calls.

struct Span {
  const char* name;
  double start_us;
  double end_us;
  int parent;  // index in the same session's span log, -1 for roots
  int64_t query;
};

// ----- per-session logs -----

/// Exact sums over a session's first pass of its seeded sequence.
struct PassTotals {
  int64_t queries = 0;
  int64_t rows = 0;
  int64_t filter_join_plans = 0;
  int64_t spilled_queries = 0;
  int64_t parallel_fallbacks = 0;
  int64_t dop_sum = 0;
  int64_t memory_peak_max = 0;
  int64_t writes = 0;
  int64_t rows_appended = 0;
  CostCounters counters;
  OptimizerStats optimizer;
  std::vector<double> cost_qerror;
  std::vector<double> filter_join_qerror;
  /// template -> (queries, spilled queries)
  std::map<std::string, std::pair<int64_t, int64_t>> by_template;
};

struct SessionLog {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  int64_t ddl_retries = 0;
  std::vector<std::string> errors;
  std::vector<double> latency_us;
  std::vector<double> ttfr_us;
  std::vector<double> done_us;  // completion time of each query
  std::map<std::string, std::vector<double>> latency_by_template;
  // Traced phase only.
  std::vector<double> bind_us, plan_us, open_us, fetch_us, close_us,
      stream_us, write_us, client_self_us;
  std::vector<Span> spans;
  PassTotals pass;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(what);
  }
};

// ----- set-up -----

/// One set-up's objects. Members are destroyed in reverse order: sessions,
/// then the service, then the database it serves.
struct Setup {
  std::unique_ptr<Database> db;
  std::unique_ptr<QueryService> service;
  std::vector<std::unique_ptr<Session>> sessions;
  double seconds = 0.0;
  double load_seconds = 0.0;
  std::vector<std::pair<std::string, double>> load_by_table;
};

ExecOptions QueryExecOptions(const Workload& w) {
  ExecOptions exec;
  exec.dop = w.dop;
  exec.memory_limit_bytes = w.memory_limit_bytes;
  exec.stream_queue_rows = w.stream_queue_rows;
  exec.batch_size = 1024;
  // Fixed explicitly so environment overrides of the defaults cannot
  // change what is measured.
  exec.reoptimize_qerror_threshold = 0.0;
  return exec;
}

/// Runs one statement through a session to the end of its stream.
Status Drain(Session* session, const std::string& sql,
             const ExecOptions& exec) {
  auto cursor = session->Open(sql, exec);
  if (!cursor.ok()) return cursor.status();
  while (true) {
    auto batch = cursor->Fetch(kFetchRows);
    if (!batch.ok()) return batch.status();
    if (batch->empty()) break;
  }
  return cursor->Close();
}

/// One set-up. Timed: DDL, LoadRows (which runs ANALYZE), index builds,
/// views, service start, sessions and warm-up. Not timed: generating the
/// rows, which is the benchmark's own work.
Status BuildSetup(const Workload& w, const QueryServiceOptions& service_options,
                  Setup* s) {
  Dataset data = w.make_dataset();
  s->db = std::make_unique<Database>();
  *s->db->mutable_optimizer_options() = w.optimizer;
  double t0 = NowUs();
  for (const TableData& t : data.tables) {
    Status st = s->db->Execute(t.ddl);
    if (!st.ok()) return st;
  }
  s->seconds += (NowUs() - t0) / 1e6;
  for (TableData& t : data.tables) {
    if (t.rows.empty()) continue;
    t0 = NowUs();
    Status st = s->db->LoadRows(t.name, std::move(t.rows));
    if (!st.ok()) return st;
    for (const std::vector<int>& cols : t.indexes) {
      (*s->db->catalog()->Lookup(t.name))->table->CreateHashIndex(cols);
    }
    const double dt = (NowUs() - t0) / 1e6;
    s->seconds += dt;
    s->load_seconds += dt;
    s->load_by_table.emplace_back(t.name, dt);
    std::vector<Tuple>().swap(t.rows);
  }
  t0 = NowUs();
  for (const std::string& v : data.views) {
    Status st = s->db->Execute(v);
    if (!st.ok()) return st;
  }
  s->service = std::make_unique<QueryService>(s->db.get(), service_options);
  for (int i = 0; i < w.sessions; ++i) {
    s->sessions.push_back(s->service->CreateSession());
  }
  const ExecOptions exec = QueryExecOptions(w);
  for (int idx : w.warmup) {
    Status st = Drain(s->sessions[0].get(), w.statements[idx].sql, exec);
    if (!st.ok()) return st;
  }
  s->seconds += (NowUs() - t0) / 1e6;
  return Status::OK();
}

// ----- reference answers -----

/// Fills every statement's reference answer by embedded Database::Run
/// calls on the kept set-up (not timed; the service is idle meanwhile).
Status ComputeReferences(Database* db, Workload* w) {
  ExecOptions ref;
  ref.dop = 1;
  ref.batch_size = 1024;
  ref.reoptimize_qerror_threshold = 0.0;
  ref.memory_limit_bytes = -1;  // ungoverned: the in-memory answer
  for (Statement& st : w->statements) {
    *db->mutable_optimizer_options() = w->optimizer;
    auto cost_based = db->Run(st.sql, ref);
    if (!cost_based.ok()) return cost_based.status();
    RowDigest d;
    d.AddAll(cost_based->rows);
    st.ref_rows = d.rows;
    st.ref_ordered = d.ordered;
    st.ref_multiset = d.multiset;
    st.ref_counters = cost_based->counters;
    if (w->gate == Gate::kMagicOracle) {
      db->mutable_optimizer_options()->magic_mode =
          OptimizerOptions::MagicMode::kNever;
      auto no_magic = db->Run(st.sql, ref);
      *db->mutable_optimizer_options() = w->optimizer;
      if (!no_magic.ok()) return no_magic.status();
      RowDigest m;
      m.AddAll(no_magic->rows);
      st.ref_multiset = m.multiset;
      if (m.rows != d.rows) st.ref_rows = -1;  // the gate then fails loudly
    }
  }
  return Status::OK();
}

/// The correctness gate of one measured answer; empty when it passes.
std::string CheckAnswer(const Workload& w, const Statement& st,
                        const RowDigest& got, const Cursor& cursor) {
  if (got.rows != st.ref_rows) {
    return "row count " + std::to_string(got.rows) + " != reference " +
           std::to_string(st.ref_rows);
  }
  if (got.ordered != st.ref_ordered) return "rows or row order differ";
  switch (w.gate) {
    case Gate::kMagicOracle:
      if (got.multiset != st.ref_multiset) {
        return "row multiset differs from the magic_mode=kNever answer";
      }
      break;
    case Gate::kDopOneIdentity: {
      const CostCounters& a = cursor.counters();
      const CostCounters& b = st.ref_counters;
      if (a.pages_read != b.pages_read || a.pages_written != b.pages_written ||
          a.tuples_processed != b.tuples_processed ||
          a.exprs_evaluated != b.exprs_evaluated ||
          a.hash_operations != b.hash_operations ||
          a.messages_sent != b.messages_sent ||
          a.bytes_shipped != b.bytes_shipped ||
          a.function_invocations != b.function_invocations ||
          a.spill_bytes_written != b.spill_bytes_written ||
          a.spill_bytes_read != b.spill_bytes_read) {
        return "CostCounters differ from DoP 1";
      }
      break;
    }
    case Gate::kInMemoryIdentity:
      if (cursor.memory_peak_bytes() > w.memory_limit_bytes) {
        return "memory peak " + std::to_string(cursor.memory_peak_bytes()) +
               " exceeds the limit";
      }
      if (st.expect_spill && cursor.counters().spill_bytes_written <= 0) {
        return "template " + st.tmpl + " did not spill";
      }
      break;
  }
  return "";
}

// ----- the closed loop -----

/// State shared by the session threads of one phase.
struct PhaseShared {
  Setup* setup = nullptr;
  const Workload* w = nullptr;
  ExecOptions exec;
  bool traced = false;
  double deadline_us = 0.0;
  double hard_stop_us = 0.0;
  int64_t min_queries = 0;
  std::atomic<int64_t> completed{0};
  std::atomic<int> sessions_in_pass{0};
  ServiceStats at_pass_end;
  /// Guards BindSelect/PlanBound (traced readers, shared) against the
  /// writer's LoadRows (exclusive), since those embedded calls do not take
  /// the service's own DDL lock.
  std::shared_mutex* ddl_guard = nullptr;
  std::atomic<int64_t>* next_batch = nullptr;
};

void AddOptimizerStats(const OptimizerStats& o, OptimizerStats* into) {
  into->join_steps_costed += o.join_steps_costed;
  into->dp_entries += o.dp_entries;
  into->nested_optimizations += o.nested_optimizations;
  into->eq_class_hits += o.eq_class_hits;
  into->eq_class_misses += o.eq_class_misses;
  into->filter_joins_costed += o.filter_joins_costed;
}

void RecordPass(const Statement& st, const Cursor& cursor,
                const RowDigest& digest, PassTotals* p) {
  ++p->queries;
  p->rows += digest.rows;
  p->counters += cursor.counters();
  AddOptimizerStats(cursor.optimizer_stats(), &p->optimizer);
  if (!cursor.filter_joins().empty()) ++p->filter_join_plans;
  const bool spilled = cursor.counters().spill_bytes_written > 0;
  if (spilled) ++p->spilled_queries;
  if (!cursor.parallel_fallback_reason().empty()) ++p->parallel_fallbacks;
  p->dop_sum += cursor.used_dop();
  p->memory_peak_max = std::max(p->memory_peak_max, cursor.memory_peak_bytes());
  p->cost_qerror.push_back(
      QError(cursor.est_cost(), cursor.counters().TotalCost()));
  const auto& predicted = cursor.filter_joins();
  const auto& measured = cursor.filter_join_measured();
  for (size_t i = 0; i < predicted.size() && i < measured.size(); ++i) {
    p->filter_join_qerror.push_back(
        QError(predicted[i].join_cost_p + predicted[i].StepTotal(),
               measured[i].Total()));
  }
  auto& t = p->by_template[st.tmpl];
  ++t.first;
  if (spilled) ++t.second;
}

/// Runs one query of the sequence: (traced: BindSelect + PlanBound on the
/// same text) -> Open -> Fetch until end of stream -> Close, re-opening
/// when DDL staled the cursor. Checks the answer.
void RunQuery(PhaseShared* ph, int session_index, const Statement& st,
              int64_t query_id, bool in_pass, SessionLog* log) {
  Session* session = ph->setup->sessions[session_index].get();
  Database* db = ph->setup->db.get();
  ++log->attempted;
  int root = -1;
  const double t_begin = NowUs();
  if (ph->traced) {
    root = static_cast<int>(log->spans.size());
    log->spans.push_back({"query", t_begin, 0.0, -1, query_id});
    std::shared_lock<std::shared_mutex> guard(*ph->ddl_guard);
    const double b0 = NowUs();
    auto bound = db->BindSelect(st.sql);
    const double b1 = NowUs();
    log->spans.push_back({"sql.bind", b0, b1, root, query_id});
    log->bind_us.push_back(b1 - b0);
    if (!bound.ok()) {
      log->Fail(st.tmpl + ": BindSelect: " + bound.status().ToString());
      log->spans[root].end_us = NowUs();
      return;
    }
    auto planned = db->PlanBound(*bound, session->options());
    const double p1 = NowUs();
    log->spans.push_back({"optimizer.plan", b1, p1, root, query_id});
    log->plan_us.push_back(p1 - b1);
    if (!planned.ok()) {
      log->Fail(st.tmpl + ": PlanBound: " + planned.status().ToString());
      log->spans[root].end_us = NowUs();
      return;
    }
  }
  const double t_call = NowUs();
  bool finished = false;  // completed or failed; false = every attempt stale
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const double o0 = NowUs();
    auto cursor = session->Open(st.sql, ph->exec);
    const double o1 = NowUs();
    if (ph->traced) {
      log->spans.push_back({"server.open", o0, o1, root, query_id});
      log->open_us.push_back(o1 - o0);
    }
    if (!cursor.ok()) {
      log->Fail(st.tmpl + ": Open: " + cursor.status().ToString());
      finished = true;
      break;
    }
    RowDigest digest;
    double first_row = -1.0;
    bool stale = false;
    Status error;
    while (true) {
      const double f0 = ph->traced ? NowUs() : 0.0;
      auto batch = cursor->Fetch(kFetchRows);
      const double f1 = NowUs();
      if (ph->traced) {
        log->spans.push_back({"server.fetch", f0, f1, root, query_id});
        log->fetch_us.push_back(f1 - f0);
      }
      if (!batch.ok()) {
        if (batch.status().code() == StatusCode::kFailedPrecondition) {
          stale = true;
        } else {
          error = batch.status();
        }
        break;
      }
      if (batch->empty()) break;
      if (first_row < 0) first_row = f1;
      for (const Tuple& t : *batch) digest.Add(t);
    }
    const double t_last = NowUs();
    std::string wrong;
    if (!stale && error.ok()) wrong = CheckAnswer(*ph->w, st, digest, *cursor);
    if (!stale && error.ok() && in_pass) {
      RecordPass(st, *cursor, digest, &log->pass);
    }
    const double c0 = NowUs();
    Status closed = cursor->Close();
    const double c1 = NowUs();
    if (ph->traced) {
      log->spans.push_back({"server.close", c0, c1, root, query_id});
      log->close_us.push_back(c1 - c0);
    }
    if (stale) {
      ++log->ddl_retries;
      continue;
    }
    finished = true;
    if (!error.ok()) {
      log->Fail(st.tmpl + ": Fetch: " + error.ToString());
      break;
    }
    if (!closed.ok()) {
      log->Fail(st.tmpl + ": Close: " + closed.ToString());
      break;
    }
    if (!wrong.empty()) {
      log->Fail(st.tmpl + ": wrong answer: " + wrong + " [" + st.sql + "]");
      break;
    }
    ++log->completed;
    ph->completed.fetch_add(1, std::memory_order_relaxed);
    log->latency_us.push_back(t_last - t_call);
    log->done_us.push_back(t_last);
    log->latency_by_template[st.tmpl].push_back(t_last - t_call);
    log->ttfr_us.push_back((first_row < 0 ? t_last : first_row) - t_call);
    if (ph->traced) log->stream_us.push_back(t_last - o1);
    break;
  }
  if (ph->traced) {
    log->spans[root].end_us = NowUs();
    double children = 0.0;
    for (size_t i = root + 1; i < log->spans.size(); ++i) {
      children += log->spans[i].end_us - log->spans[i].start_us;
    }
    log->client_self_us.push_back(log->spans[root].end_us -
                                  log->spans[root].start_us - children);
  }
  if (!finished) {
    log->Fail(st.tmpl + ": gave up after " + std::to_string(kMaxAttempts) +
              " stale cursors");
  }
}

/// Session 0's append into the ingest table through QueryService::LoadRows.
void RunWrite(PhaseShared* ph, bool in_pass, SessionLog* log) {
  const Workload& w = *ph->w;
  const int64_t batch = ph->next_batch->fetch_add(1);
  std::vector<Tuple> rows = w.make_ingest_batch(batch);
  const int64_t n = static_cast<int64_t>(rows.size());
  ++log->attempted;
  std::unique_lock<std::shared_mutex> guard(*ph->ddl_guard);
  const double t0 = NowUs();
  Status st = ph->setup->service->LoadRows(w.ingest_table, std::move(rows));
  const double t1 = NowUs();
  guard.unlock();
  if (!st.ok()) {
    log->Fail("LoadRows(" + w.ingest_table + "): " + st.ToString());
    return;
  }
  ++log->completed;
  if (ph->traced) {
    log->spans.push_back({"storage.load", t0, t1, -1, -1 - batch});
    log->write_us.push_back(t1 - t0);
  }
  if (in_pass) {
    ++log->pass.writes;
    log->pass.rows_appended += n;
  }
}

void SessionLoop(PhaseShared* ph, int s, SessionLog* log) {
  const Workload& w = *ph->w;
  const std::vector<int>& seq = w.sequences[s];
  const int64_t pass_len = static_cast<int64_t>(seq.size());
  for (int64_t i = 0;; ++i) {
    const double now = NowUs();
    if (i >= pass_len && now >= ph->hard_stop_us) break;
    if (i >= pass_len && now >= ph->deadline_us &&
        ph->completed.load(std::memory_order_relaxed) >= ph->min_queries) {
      break;
    }
    const bool in_pass = i < pass_len;
    const Statement& st = w.statements[seq[i % pass_len]];
    RunQuery(ph, s, st, (static_cast<int64_t>(s) << 40) | i, in_pass, log);
    if (w.write_every > 0 && s == 0 && (i + 1) % w.write_every == 0) {
      RunWrite(ph, in_pass, log);
    }
    if (i + 1 == pass_len && ph->sessions_in_pass.fetch_sub(1) == 1) {
      // The last session to finish its first pass snapshots the service;
      // with one session this is exact.
      ph->at_pass_end = ph->setup->service->StatsSnapshot();
    }
  }
}

struct Phase {
  double start_us = 0.0;
  double wall_s = 0.0;
  std::vector<SessionLog> logs;
  ServiceStats before, at_pass_end, after;
};

Phase RunPhase(Setup* setup, const Workload& w, double seconds, bool traced,
               int64_t min_queries, std::shared_mutex* ddl_guard,
               std::atomic<int64_t>* next_batch) {
  PhaseShared ph;
  ph.min_queries = min_queries;
  ph.setup = setup;
  ph.w = &w;
  ph.exec = QueryExecOptions(w);
  ph.traced = traced;
  ph.ddl_guard = ddl_guard;
  ph.next_batch = next_batch;
  ph.sessions_in_pass = w.sessions;
  Phase out;
  out.logs.resize(w.sessions);
  out.before = setup->service->StatsSnapshot();
  const double t0 = NowUs();
  out.start_us = t0;
  ph.deadline_us = t0 + seconds * 1e6;
  ph.hard_stop_us = ph.deadline_us + 60e6;
  std::vector<std::thread> threads;
  for (int s = 0; s < w.sessions; ++s) {
    threads.emplace_back(SessionLoop, &ph, s, &out.logs[s]);
  }
  for (std::thread& t : threads) t.join();
  out.wall_s = (NowUs() - t0) / 1e6;
  out.after = setup->service->StatsSnapshot();
  out.at_pass_end = ph.at_pass_end;
  return out;
}

// ----- aggregation -----

template <typename F>
std::vector<double> Gather(const Phase& p, F member) {
  std::vector<double> all;
  for (const SessionLog& l : p.logs) {
    const std::vector<double>& v = l.*member;
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

/// Queries completed per second: the median over equal sub-windows of the
/// phase (3 to 10 windows of at least 100 completions on average, so each
/// holds many rounds of the template mix), so a burst of interference from
/// outside the process moves a few windows rather than the whole figure.
double MedianWindowQps(const Phase& p) {
  const std::vector<double> done = Gather(p, &SessionLog::done_us);
  const int windows =
      std::clamp(static_cast<int>(done.size() / 100), 3, 10);
  const double len_us = p.wall_s * 1e6 / windows;
  std::vector<double> counts(windows, 0.0);
  for (double t : done) {
    const int w = static_cast<int>((t - p.start_us) / len_us);
    counts[std::clamp(w, 0, windows - 1)] += 1.0;
  }
  for (double& c : counts) c /= len_us / 1e6;
  return Percentile(counts, 0.5);
}

PassTotals MergePasses(const Phase& p) {
  PassTotals t;
  for (const SessionLog& l : p.logs) {
    const PassTotals& s = l.pass;
    t.queries += s.queries;
    t.rows += s.rows;
    t.filter_join_plans += s.filter_join_plans;
    t.spilled_queries += s.spilled_queries;
    t.parallel_fallbacks += s.parallel_fallbacks;
    t.dop_sum += s.dop_sum;
    t.memory_peak_max = std::max(t.memory_peak_max, s.memory_peak_max);
    t.writes += s.writes;
    t.rows_appended += s.rows_appended;
    t.counters += s.counters;
    AddOptimizerStats(s.optimizer, &t.optimizer);
    t.cost_qerror.insert(t.cost_qerror.end(), s.cost_qerror.begin(),
                         s.cost_qerror.end());
    t.filter_join_qerror.insert(t.filter_join_qerror.end(),
                                s.filter_join_qerror.begin(),
                                s.filter_join_qerror.end());
    for (const auto& [name, c] : s.by_template) {
      t.by_template[name].first += c.first;
      t.by_template[name].second += c.second;
    }
  }
  return t;
}

/// The exact-count fingerprint: every value here repeats exactly between
/// two runs of one seed.
std::vector<std::pair<std::string, int64_t>> Fingerprint(
    const PassTotals& t, const Phase& p, int sessions) {
  const CostCounters& c = t.counters;
  const OptimizerStats& o = t.optimizer;
  std::vector<std::pair<std::string, int64_t>> f = {
      {"queries", t.queries},
      {"rows", t.rows},
      {"writes", t.writes},
      {"rows_appended", t.rows_appended},
      {"pages_read", c.pages_read},
      {"pages_written", c.pages_written},
      {"tuples_processed", c.tuples_processed},
      {"exprs_evaluated", c.exprs_evaluated},
      {"hash_operations", c.hash_operations},
      {"messages_sent", c.messages_sent},
      {"bytes_shipped", c.bytes_shipped},
      {"function_invocations", c.function_invocations},
      {"spill_bytes_written", c.spill_bytes_written},
      {"spill_bytes_read", c.spill_bytes_read},
      {"join_steps_costed", o.join_steps_costed},
      {"dp_entries", o.dp_entries},
      {"nested_optimizations", o.nested_optimizations},
      {"eq_class_hits", o.eq_class_hits},
      {"eq_class_misses", o.eq_class_misses},
      {"filter_joins_costed", o.filter_joins_costed},
      {"filter_join_plans", t.filter_join_plans},
      {"spilled_queries", t.spilled_queries},
      {"parallel_fallbacks", t.parallel_fallbacks},
      {"dop_sum", t.dop_sum},
  };
  if (sessions == 1) {
    // One session: the service totals at the end of the pass are exact.
    f.emplace_back("spill_partitions_opened",
                   p.at_pass_end.spill_partitions_opened -
                       p.before.spill_partitions_opened);
    f.emplace_back("spill_recursion_depth_max",
                   p.at_pass_end.spill_recursion_depth_max);
  }
  return f;
}

uint64_t FingerprintHash(
    const std::vector<std::pair<std::string, int64_t>>& f) {
  uint64_t h = 0x243f6a8885a308d3ULL;
  for (const auto& [name, v] : f) {
    for (unsigned char ch : name) h = Mix(h ^ ch);
    h = Mix(h ^ static_cast<uint64_t>(v));
  }
  return h;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

int Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// ----- per-layer metrics of the traced phase -----

/// Counts that depend on thread timing and so cannot repeat exactly between
/// two runs of one seed, over one phase; reported beside the exact
/// fingerprint. Service counter deltas and the client's stale-cursor
/// re-opens.
std::vector<std::pair<std::string, double>> RacingCounts(const Phase& p) {
  const ServiceStats& a = p.before;
  const ServiceStats& b = p.after;
  const int64_t hits = b.plan_cache_hits - a.plan_cache_hits;
  const int64_t lookups = hits + (b.plan_cache_misses - a.plan_cache_misses);
  int64_t ddl_retries = 0;
  for (const SessionLog& l : p.logs) ddl_retries += l.ddl_retries;
  return {
      {"server.plan_cache_hit_rate",
       lookups > 0 ? static_cast<double>(hits) / lookups : 0.0},
      {"server.plan_cache_lookups", static_cast<double>(lookups)},
      {"server.plan_instance_reuses",
       static_cast<double>(b.plan_instance_reuses - a.plan_instance_reuses)},
      {"server.ddl_retries", static_cast<double>(ddl_retries)},
      {"server.cursors_stale",
       static_cast<double>(b.cursors_stale - a.cursors_stale)},
      // The service's own histogram: power-of-two buckets, interpolated.
      {"server.admission_wait_us_p95_bucketed", b.admission_wait_us_p95},
      {"server.sched_quanta",
       static_cast<double>(b.sched_quanta - a.sched_quanta)},
      {"server.producer_parks",
       static_cast<double>(b.cursor_producer_parks - a.cursor_producer_parks)},
      {"parallel.morsels_stolen",
       static_cast<double>(b.morsels_stolen - a.morsels_stolen)},
  };
}

std::vector<std::pair<std::string, double>> PerLayerMetrics(
    const Workload& w, const Phase& untraced, const Phase& traced,
    const Setup& setup) {
  const PassTotals t = MergePasses(traced);
  const ServiceStats& a = traced.before;
  const ServiceStats& b = traced.after;
  const double q = std::max<int64_t>(t.queries, 1);
  const double eq_lookups = static_cast<double>(t.optimizer.eq_class_hits +
                                                t.optimizer.eq_class_misses);
  const double input_bytes = static_cast<double>(t.counters.pages_read) *
                             magicdb::CostConstants::kPageSizeBytes;
  // Spill partition totals: exact at the end of the pass with one session,
  // otherwise over the whole traced phase.
  const ServiceStats& spill_end = w.sessions == 1 ? traced.at_pass_end : b;
  const double untraced_p50 =
      Percentile(Gather(untraced, &SessionLog::latency_us), 0.5);
  const double traced_p50 =
      Percentile(Gather(traced, &SessionLog::latency_us), 0.5);
  std::vector<std::pair<std::string, double>> m = {
      {"sql.bind_us_p50", Percentile(Gather(traced, &SessionLog::bind_us), 0.5)},
      {"sql.bind_us_p95",
       Percentile(Gather(traced, &SessionLog::bind_us), 0.95)},
      {"optimizer.plan_us_p50",
       Percentile(Gather(traced, &SessionLog::plan_us), 0.5)},
      {"optimizer.plan_us_p95",
       Percentile(Gather(traced, &SessionLog::plan_us), 0.95)},
      {"optimizer.join_steps_costed",
       static_cast<double>(t.optimizer.join_steps_costed)},
      {"optimizer.dp_entries", static_cast<double>(t.optimizer.dp_entries)},
      {"optimizer.filter_joins_costed",
       static_cast<double>(t.optimizer.filter_joins_costed)},
      {"optimizer.eq_class_hit_rate",
       eq_lookups > 0 ? t.optimizer.eq_class_hits / eq_lookups : 0.0},
      {"optimizer.filter_join_chosen_frac", t.filter_join_plans / q},
      {"optimizer.cost_qerror_p50", Percentile(t.cost_qerror, 0.5)},
      {"optimizer.filter_join_cost_qerror_p50",
       Percentile(t.filter_join_qerror, 0.5)},
      {"server.open_us_p50",
       Percentile(Gather(traced, &SessionLog::open_us), 0.5)},
      {"server.open_us_p95",
       Percentile(Gather(traced, &SessionLog::open_us), 0.95)},
      {"server.fetch_us_p50",
       Percentile(Gather(traced, &SessionLog::fetch_us), 0.5)},
      {"server.close_us_p50",
       Percentile(Gather(traced, &SessionLog::close_us), 0.5)},
      {"server.write_us_p50",
       Percentile(Gather(traced, &SessionLog::write_us), 0.5)},
      {"exec.tuples_processed",
       static_cast<double>(t.counters.tuples_processed)},
      {"exec.hash_operations", static_cast<double>(t.counters.hash_operations)},
      {"exec.exprs_evaluated", static_cast<double>(t.counters.exprs_evaluated)},
      {"exec.pages_read", static_cast<double>(t.counters.pages_read)},
      {"exec.stream_us_p50",
       Percentile(Gather(traced, &SessionLog::stream_us), 0.5)},
      {"exec.memory_peak_bytes_max", static_cast<double>(t.memory_peak_max)},
      {"parallel.used_dop_mean", t.dop_sum / q},
      {"parallel.fallbacks", static_cast<double>(t.parallel_fallbacks)},
      {"spill.bytes_written",
       static_cast<double>(t.counters.spill_bytes_written)},
      {"spill.bytes_read", static_cast<double>(t.counters.spill_bytes_read)},
      {"spill.bytes_written_per_input_byte",
       input_bytes > 0 ? t.counters.spill_bytes_written / input_bytes : 0.0},
      {"spill.partitions_opened",
       static_cast<double>(spill_end.spill_partitions_opened -
                           a.spill_partitions_opened)},
      {"spill.recursion_depth_max",
       static_cast<double>(spill_end.spill_recursion_depth_max)},
      {"spill.spilled_query_frac", t.spilled_queries / q},
      {"storage.load_s", setup.load_seconds},
      {"trace.overhead_frac",
       untraced_p50 > 0 ? (traced_p50 - untraced_p50) / untraced_p50 : 0.0},
      {"trace.client_self_us_p50",
       Percentile(Gather(traced, &SessionLog::client_self_us), 0.5)},
  };
  for (auto& racing : RacingCounts(traced)) m.push_back(std::move(racing));
  return m;
}

void WriteSpans(const std::string& path, const Phase& traced) {
  std::ofstream out(path);
  out << "[\n";
  bool first = true;
  for (size_t s = 0; s < traced.logs.size(); ++s) {
    for (const Span& sp : traced.logs[s].spans) {
      out << (first ? "" : ",\n") << "[" << JsonString(sp.name) << ", "
          << FormatNumber(sp.start_us) << ", " << FormatNumber(sp.end_us)
          << ", " << sp.parent << ", " << sp.query << ", " << s << "]";
      first = false;
    }
  }
  out << "\n]\n";
}

/// Self time per span name over the traced phase: each span's duration
/// minus the part its children cover (children never overlap: one client
/// thread makes the calls one after another).
std::map<std::string, double> SelfTimeUs(const Phase& traced) {
  std::map<std::string, double> self;
  for (const SessionLog& l : traced.logs) {
    std::vector<double> child(l.spans.size(), 0.0);
    for (const Span& sp : l.spans) {
      if (sp.parent >= 0) child[sp.parent] += sp.end_us - sp.start_us;
    }
    for (size_t i = 0; i < l.spans.size(); ++i) {
      self[l.spans[i].name] +=
          l.spans[i].end_us - l.spans[i].start_us - child[i];
    }
  }
  return self;
}

}  // namespace

int RunBenchmark(const RunOptions& options) {
  Workload w;
  const int nproc = Nproc();
  const int dop = std::min(4, nproc);
  if (!MakeWorkload(options.workload, options.seed, dop, &w)) {
    std::cerr << "unknown workload: " << options.workload << "\n";
    return 2;
  }
  const std::string build_type = MAGICBENCH_BUILD_TYPE;
  bool release = build_type == "Release";
#ifndef NDEBUG
  release = false;
#endif
  if (!release) {
    std::cerr << "refusing to time a non-Release build (" << build_type
              << ")\n";
    return 3;
  }

  // Stamp: where these numbers come from.
  JsonObject stamp;
  for (const auto& [k, v] : options.stamp) stamp.Str(k, v);
  stamp.Str("build_type", build_type)
      .Str("compiler", MAGICBENCH_COMPILER)
      .Int("nproc", nproc)
      .Str("cpu_model", CpuModel())
      .Str("workload", w.name)
      .Int("seed", static_cast<int64_t>(options.seed))
      .Num("seconds", options.seconds)
      .Bool("trace", options.trace)
      .Int("sessions", w.sessions)
      .Int("dop", w.dop)
      .Int("pool_threads", dop);

  std::string spill_dir;
  if (w.spill) {
    spill_dir = options.spill_dir + "/run-" + std::to_string(getpid());
    std::error_code ec;
    std::filesystem::create_directories(spill_dir, ec);
    if (ec) {
      std::cerr << "cannot create spill directory " << spill_dir << "\n";
      return 2;
    }
  }
  QueryServiceOptions so;
  so.pool_threads = dop;
  so.spill_dir = spill_dir;
  if (w.scheduler_quantum_rows > 0) {
    so.scheduler_quantum_rows = w.scheduler_quantum_rows;
  }
  so.default_batch_size = 1024;

  // Set-up, several times; the last one is kept for measuring.
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> kept;
  for (int i = 0; i < w.setups; ++i) {
    kept.reset();
    auto s = std::make_unique<Setup>();
    Status st = BuildSetup(w, so, s.get());
    if (!st.ok()) {
      std::cerr << "set-up failed: " << st.ToString() << "\n";
      return 1;
    }
    setup_seconds.push_back(s->seconds);
    kept = std::move(s);
  }
  Status refs = ComputeReferences(kept->db.get(), &w);
  if (!refs.ok()) {
    std::cerr << "reference answers failed: " << refs.ToString() << "\n";
    return 1;
  }

  std::shared_mutex ddl_guard;
  std::atomic<int64_t> next_batch{0};
  const double phase_s = options.trace ? options.seconds / 2 : options.seconds;
  // The end-to-end run needs its p95 tail; the traced run's two halves
  // only compare medians.
  const int64_t min_queries = options.trace ? 0 : kMinQueries;
  Phase untraced = RunPhase(kept.get(), w, phase_s, /*traced=*/false,
                            min_queries, &ddl_guard, &next_batch);
  Phase traced;
  if (options.trace) {
    traced = RunPhase(kept.get(), w, phase_s, /*traced=*/true, min_queries,
                      &ddl_guard, &next_batch);
  }
  const Phase& main_phase = options.trace ? traced : untraced;

  int64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  for (const Phase* p : {&untraced, &traced}) {
    for (const SessionLog& l : p->logs) {
      attempted += l.attempted;
      failed += l.failed;
      errors.insert(errors.end(), l.errors.begin(), l.errors.end());
    }
  }
  const std::vector<double> latency = Gather(untraced, &SessionLog::latency_us);
  std::vector<std::pair<std::string, double>> e2e = {
      {"qps", MedianWindowQps(untraced)},
      {"latency_p50_ms", Percentile(latency, 0.5) / 1e3},
      {"latency_p95_ms", Percentile(latency, 0.95) / 1e3},
      {"ttfr_p50_ms",
       Percentile(Gather(untraced, &SessionLog::ttfr_us), 0.5) / 1e3},
      {"setup_s", Percentile(setup_seconds, 0.5)},
      {"peak_rss_mb", PeakRssMb()},
  };
  const int64_t beyond_p95 =
      static_cast<int64_t>(latency.size()) -
      static_cast<int64_t>(std::ceil(0.95 * static_cast<double>(latency.size())));

  std::vector<std::pair<std::string, double>> layers;
  if (options.trace) layers = PerLayerMetrics(w, untraced, traced, *kept);

  const PassTotals pass = MergePasses(main_phase);
  const auto fingerprint = Fingerprint(pass, main_phase, w.sessions);
  const uint64_t fp_hash = FingerprintHash(fingerprint);
  char fp_hex[32];
  std::snprintf(fp_hex, sizeof fp_hex, "%016llx",
                static_cast<unsigned long long>(fp_hash));

  // Gate details beyond the per-query checks.
  bool correct = failed == 0;
  if (w.gate == Gate::kInMemoryIdentity) {
    for (const Statement& st : w.statements) {
      if (!st.expect_spill) continue;
      auto it = pass.by_template.find(st.tmpl);
      if (it == pass.by_template.end() || it->second.second != it->second.first) {
        correct = false;
        errors.push_back("template " + st.tmpl + " did not spill on every run");
        break;
      }
    }
  }

  // ----- report -----
  JsonObject e2e_json, layer_json, fp_json, racing_json, setup_json,
      tmpl_json, self_json;
  for (const auto& [k, v] : e2e) e2e_json.Num(k, v);
  for (const auto& [k, v] : layers) layer_json.Num(k, v);
  for (const auto& [k, v] : fingerprint) fp_json.Int(k, v);
  fp_json.Str("hash", fp_hex);
  for (const auto& [k, v] : RacingCounts(main_phase)) racing_json.Num(k, v);
  std::string setups = "[";
  for (size_t i = 0; i < setup_seconds.size(); ++i) {
    setups += (i ? ", " : "") + FormatNumber(setup_seconds[i]);
  }
  setup_json.Raw("seconds", setups + "]");
  JsonObject load_json;
  for (const auto& [table, s] : kept->load_by_table) load_json.Num(table, s);
  setup_json.Raw("load_s_by_table", load_json.str());
  std::map<std::string, std::vector<double>> by_template;
  for (const SessionLog& l : untraced.logs) {
    for (const auto& [name, v] : l.latency_by_template) {
      by_template[name].insert(by_template[name].end(), v.begin(), v.end());
    }
  }
  for (const auto& [name, c] : pass.by_template) {
    tmpl_json.Raw(name, JsonObject()
                            .Int("queries", c.first)
                            .Int("spilled", c.second)
                            .Num("latency_p50_ms",
                                 Percentile(by_template[name], 0.5) / 1e3)
                            .str());
  }
  if (options.trace) {
    for (const auto& [name, us] : SelfTimeUs(traced)) self_json.Num(name, us);
  }
  JsonObject defs;
  for (const MetricDef& d : kEndToEnd) defs.Str(d.name, d.moves);
  for (const MetricDef& d : kPerLayer) defs.Str(d.name, d.moves);
  std::string errs = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    errs += (i ? ", " : "") + JsonString(errors[i]);
  }
  errs += "]";
  JsonObject report;
  report.Raw("stamp", stamp.str())
      .Raw("end_to_end", e2e_json.str())
      .Int("latency_samples", static_cast<int64_t>(latency.size()))
      .Int("samples_beyond_p95", beyond_p95)
      .Raw("per_layer", layer_json.str())
      .Raw("fingerprint", fp_json.str())
      .Raw("racing_counts", racing_json.str())
      .Raw("setup", setup_json.str())
      .Raw("pass_by_template", tmpl_json.str())
      .Raw("self_time_us_by_span", self_json.str())
      .Raw("metric_moves", defs.str())
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("errors", errs);
  const std::string base = options.out_dir + "/" + w.name + "-seed" +
                           std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");
  {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    std::ofstream out(base + ".json");
    out << report.str() << "\n";
  }
  if (options.trace) WriteSpans(base + "-spans.json", traced);

  kept.reset();
  if (!spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
  }

  // ----- stdout: readable lines, the stamp, then the result line -----
  for (const std::string& e : errors) std::cout << "error: " << e << "\n";
  std::cout << "fingerprint " << fp_hex << " over " << pass.queries
            << " queries; latency samples " << latency.size() << " ("
            << beyond_p95 << " beyond p95)\n";
  // Printed in catalogue order; every catalogued metric must be present.
  std::map<std::string, double> values(e2e.begin(), e2e.end());
  values.insert(layers.begin(), layers.end());
  JsonObject metrics;
  auto print = [&](const MetricDef& d) {
    auto it = values.find(d.name);
    MAGICDB_CHECK(it != values.end());
    std::cout << d.name << " = " << FormatNumber(it->second) << " " << d.unit
              << "\n";
    metrics.Raw(d.name,
                JsonObject().Num("value", it->second).Str("unit", d.unit).str());
  };
  if (options.trace) {
    for (const MetricDef& d : kPerLayer) print(d);
  } else {
    for (const MetricDef& d : kEndToEnd) print(d);
  }
  std::cout << JsonObject().Raw("stamp", stamp.str()).str() << "\n";
  std::cout << JsonObject()
                   .Bool("correct", correct)
                   .Int("attempted", attempted)
                   .Int("failed", failed)
                   .Raw("metrics", metrics.str())
                   .str()
            << std::endl;
  return 0;
}

}  // namespace magicbench
