#include "src/db/query_driver.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/parallel/parallel_exec.h"

namespace magicdb {

CancelTokenPtr ArmQueryToken(const ExecOptions& options) {
  CancelTokenPtr token = options.cancel_token;
  if (token == nullptr) token = std::make_shared<CancelToken>();
  if (options.timeout.count() != 0) {
    token->SetTimeout(
        std::chrono::duration_cast<std::chrono::nanoseconds>(options.timeout));
  }
  return token;
}

std::vector<FilterJoinMeasured> PreparedQuery::MeasuredFilterJoins() const {
  if (staged) return staged_filter_joins;
  std::vector<FilterJoinMeasured> measured;
  CollectFilterJoinMeasured(*root, &measured);
  return measured;
}

StatusOr<PreparedQuery> PrepareQuery(const Database& db,
                                     DriveRequest request) {
  ExecContext& proto = request.proto;
  if (proto.cancel_token() != nullptr) {
    // A query whose deadline expired before it started (in the admission
    // queue, or a negative timeout) must not run at all.
    MAGICDB_RETURN_IF_ERROR(proto.cancel_token()->Check());
  }
  proto.set_memory_budget_bytes(request.optimizer_options.memory_budget_bytes);
  // One ledger for the whole query: observations survive re-plans (first
  // record per key wins, so re-executions keep the original wrong-estimate
  // evidence) and end up in the query's feedback.
  if (proto.cardinality_feedback() == nullptr) {
    proto.set_cardinality_feedback(std::make_shared<CardinalityFeedback>());
  }
  CardinalityFeedback& ledger = *proto.cardinality_feedback();
  const double threshold =
      ResolveReoptQErrorThreshold(request.reoptimize_qerror_threshold);
  int replans_left =
      threshold > 0 ? std::max(0, request.max_reoptimizations) : 0;
  CardinalityOverlay& overlay = request.overlay;
  PlannedSelect& planned = request.plan;
  const BoundSelect bound = planned.bound;

  PreparedQuery out;
  std::string degraded;  // set once a gang degraded to sequential spill
  while (true) {
    if (planned.root == nullptr) {
      MAGICDB_ASSIGN_OR_RETURN(
          planned, db.PlanBound(bound, request.optimizer_options,
                                overlay.empty() ? nullptr : &overlay));
    }
    // Fresh context (and governor) per attempt: an aborted attempt's
    // counters and memory charges must not leak into the final totals.
    auto ctx = std::make_unique<ExecContext>();
    ctx->InheritConfig(proto);
    if (request.memory_limit_bytes > 0) {
      ctx->set_memory_tracker(
          std::make_shared<MemoryTracker>(request.memory_limit_bytes));
    }
    ctx->set_reoptimize_qerror_threshold(replans_left > 0 ? threshold : 0.0);

    std::string fallback = degraded;
    if (request.dop > 1 && fallback.empty()) {
      fallback = ParallelExecutor::UnsafeReason(*planned.root);
    }
    const bool gang = request.dop > 1 && fallback.empty();
    Status status;
    if (gang) {
      // One optimizer pass per worker replica: planning is deterministic
      // under the same overlay, so the trees are isomorphic (the executor
      // verifies it before wiring shared state into them).
      std::vector<OpPtr> replicas;
      replicas.push_back(std::move(planned.root));
      for (int w = 1; w < request.dop; ++w) {
        MAGICDB_ASSIGN_OR_RETURN(
            PlannedSelect replica,
            db.PlanBound(bound, request.optimizer_options,
                         overlay.empty() ? nullptr : &overlay));
        replicas.push_back(std::move(replica.root));
      }
      StatusOr<StagedStream> run =
          ParallelExecutor(request.dop).RunStaged(std::move(replicas), *ctx);
      if (run.ok()) {
        // Staged, or the executor's own isomorphism check fell back and
        // handed back the untouched first replica.
        planned.root = std::move(run->stream_root);
        out.staged = run->staged;
        out.used_dop = run->used_dop;
        fallback = std::move(run->fallback_reason);
        if (run->staged) {
          ctx->counters() = run->counters;
          if (run->has_filter_join) {
            out.staged_filter_joins.push_back(run->filter_join_measured);
          }
        }
      } else {
        status = run.status();
      }
    }
    if (status.ok() && !out.staged && ctx->reoptimize_qerror_threshold() > 0) {
      status = planned.root->Open(ctx.get());
      out.opened = status.ok();
    }

    if (status.IsReoptimizeRequested()) {
      out.reoptimization_reasons.push_back(status.message());
      // Fold every exact overlay-eligible observation into the overlay for
      // the re-plan, and suppress its key: the corrected estimate makes the
      // observation consistent, so re-triggering on it would be a planning
      // no-op (suppression only ever changes here, between attempts).
      for (const CardinalityObservation& obs : ledger.Snapshot()) {
        if (!obs.exact || !IsOverlayKey(obs.key)) continue;
        overlay.rows[obs.key] = obs.actual;
        ledger.SuppressKey(obs.key);
      }
      --replans_left;
      planned.root = nullptr;
      continue;
    }
    if (gang && status.code() == StatusCode::kResourceExhausted &&
        ctx->spill_manager() != nullptr) {
      // The gang breached its limit where the parallel operators cannot
      // spill (e.g. a shared build): rerun sequentially, out of core.
      // Nothing has streamed yet.
      degraded = "memory pressure: degraded to sequential spill";
      planned.root = nullptr;
      continue;
    }
    // A gang failure fails the query outright; a failed eager Open is
    // reported through the stream, as a lazy Open's would be.
    if (gang) MAGICDB_RETURN_IF_ERROR(status);
    out.status = std::move(status);
    out.root = std::move(planned.root);
    out.plan = std::move(planned);
    ctx->set_reoptimize_qerror_threshold(0.0);
    out.ctx = std::move(ctx);
    out.fallback_reason = std::move(fallback);
    return out;
  }
}

}  // namespace magicdb
