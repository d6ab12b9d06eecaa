#ifndef MAGICDB_DB_QUERY_DRIVER_H_
#define MAGICDB_DB_QUERY_DRIVER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/cancellation.h"
#include "src/common/statusor.h"
#include "src/db/database.h"
#include "src/exec/exec_context.h"
#include "src/exec/exec_options.h"

namespace magicdb {

/// The one query driver: plan -> attempt -> re-plan -> stream. Both entry
/// points run a SELECT through PrepareQuery — Database::Run drains the
/// returned stream into a QueryResult, and the query service pumps it into
/// a cursor's bounded result queue. Everything that decides which plan
/// actually runs (parallel vs sequential, re-optimization, the
/// memory-pressure degrade) lives here; the callers add only their own
/// environment (DESIGN.md, "Query driver").

/// Arms the cancel token a query runs under: `options.cancel_token` when
/// given, else a fresh one. A non-zero `options.timeout` (re)sets its
/// deadline `timeout` from now, replacing any deadline the token already
/// had; a negative timeout is already expired (CancelToken::SetTimeout).
CancelTokenPtr ArmQueryToken(const ExecOptions& options);

/// Everything one execution of a bound SELECT needs besides the SELECT.
struct DriveRequest {
  /// The first attempt's plan. Only `bound` is required: a null `root` is
  /// planned here under `overlay`. A non-null root (a plan-cache instance)
  /// must have been planned under `overlay`, with the metadata describing
  /// it.
  PlannedSelect plan;
  OptimizerOptions optimizer_options;
  /// Cardinalities every attempt plans against (the feedback store's
  /// snapshot); attempts add their exact observations on top.
  CardinalityOverlay overlay;
  /// Resolved degree of parallelism (>= 1).
  int dop = 1;
  /// > 0: each attempt runs under a fresh MemoryTracker with this limit.
  int64_t memory_limit_bytes = 0;
  /// As ExecOptions (negative = MAGICDB_TEST_REOPT_QERROR).
  double reoptimize_qerror_threshold = 0.0;
  int max_reoptimizations = 0;
  /// Execution configuration every attempt's context inherits (cancel
  /// token, batch size, spill manager, shared pool, heartbeat); see
  /// ExecContext::InheritConfig. A null feedback ledger gets a fresh one.
  ExecContext proto;
};

/// A SELECT ready to stream: the attempt that survived, not yet drained.
struct PreparedQuery {
  /// Metadata of the plan that runs (a re-planned attempt's, not the
  /// first plan's).
  PlanMeta plan;
  /// Context to pump `root` with; heap-held, and declared before `root` so
  /// it outlives it, because an opened tree keeps pointers to it. Its
  /// counters already hold the gang's merged totals when `staged` (draining
  /// a gather charges nothing), so at end of stream `ctx->counters()` is the
  /// query's total on every path. Its threshold is 0: nothing re-plans once
  /// the stream is handed out.
  std::unique_ptr<ExecContext> ctx;
  /// The operator to pump: the plan itself when sequential, or the
  /// GatherOp over the gang's staged output when `staged`.
  OpPtr root;
  /// `root` was opened eagerly (an attempt that could re-plan); the pump
  /// must not Open it again.
  bool opened = false;
  /// The worker gang already ran: pumping performs no query work and reads
  /// no catalog objects.
  bool staged = false;
  int used_dop = 1;
  /// Why a dop > 1 request ran sequentially; empty otherwise.
  std::string fallback_reason;
  /// One trigger message per re-plan, in order.
  std::vector<std::string> reoptimization_reasons;
  /// Failure of the eager Open, surfaced through the stream like a lazy
  /// Open's would be (planning and gang failures fail PrepareQuery).
  Status status;
  /// The gang's summed Filter Join phases (staged only).
  std::vector<FilterJoinMeasured> staged_filter_joins;

  /// Measured Filter Join phases, outermost first; complete at end of
  /// stream.
  std::vector<FilterJoinMeasured> MeasuredFilterJoins() const;
};

/// Plans and starts a query. Each attempt gets a fresh context (and
/// memory tracker). An attempt runs the worker gang when `dop` > 1 and the
/// plan is parallel-safe (ParallelExecutor::UnsafeReason), else the plan
/// sequentially; the sequential tree is opened eagerly only while a
/// re-optimization can still trigger (every pipeline breaker completes in
/// Open, so the restart happens before any row exists). A
/// kReoptimizeRequested attempt folds the ledger's exact observations into
/// the overlay and re-plans, at most `max_reoptimizations` times; the final
/// attempt runs with triggering disabled. A gang that breaches its memory
/// limit where it cannot spill degrades to a sequential spilling attempt,
/// re-planned under the same overlay, when the context has a spill manager.
StatusOr<PreparedQuery> PrepareQuery(const Database& db,
                                     DriveRequest request);

}  // namespace magicdb

#endif  // MAGICDB_DB_QUERY_DRIVER_H_
