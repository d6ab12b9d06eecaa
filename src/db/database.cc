#include "src/db/database.h"

#include <algorithm>
#include <sstream>
#include <thread>

#include "src/common/failpoint.h"
#include "src/db/query_driver.h"
#include "src/exec/basic_ops.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"

namespace magicdb {

std::string QueryResult::ToString(size_t max_rows) const {
  std::ostringstream os;
  std::vector<size_t> widths(schema.num_columns());
  std::vector<std::vector<std::string>> cells;
  for (int c = 0; c < schema.num_columns(); ++c) {
    widths[c] = schema.column(c).QualifiedName().size();
  }
  const size_t shown = std::min(max_rows, rows.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < schema.num_columns(); ++c) {
      row.push_back(rows[r][c].ToString());
      widths[c] = std::max(widths[c], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  for (int c = 0; c < schema.num_columns(); ++c) {
    os << (c > 0 ? " | " : "") << schema.column(c).QualifiedName();
    os << std::string(widths[c] - schema.column(c).QualifiedName().size(),
                      ' ');
  }
  os << "\n";
  size_t total = 0;
  for (size_t w : widths) total += w + 3;
  os << std::string(total > 3 ? total - 3 : 0, '-') << "\n";
  for (const auto& row : cells) {
    for (int c = 0; c < schema.num_columns(); ++c) {
      os << (c > 0 ? " | " : "") << row[c]
         << std::string(widths[c] - row[c].size(), ' ');
    }
    os << "\n";
  }
  if (rows.size() > shown) {
    os << "... (" << rows.size() << " rows total)\n";
  } else {
    os << "(" << rows.size() << " rows)\n";
  }
  return os.str();
}

Status Database::Execute(const std::string& sql) {
  MAGICDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      // Injected fault models table creation failing (e.g. storage setup)
      // before the catalog is touched; the catalog must stay unchanged.
      MAGICDB_FAILPOINT("db.ddl.create_table");
      Schema schema;
      for (const ColumnDef& col : stmt.columns) {
        schema.AddColumn({"", col.name, col.type});
      }
      MAGICDB_ASSIGN_OR_RETURN(Table * table,
                               catalog_.CreateTable(stmt.name, schema));
      (void)table;
      return Status::OK();
    }
    case Statement::Kind::kCreateView: {
      Binder binder(&catalog_);
      MAGICDB_ASSIGN_OR_RETURN(LogicalPtr plan,
                               binder.BindSelect(*stmt.select));
      // Injected fault lands after the view body bound successfully but
      // before registration — the window where a half-created view would
      // be observable if registration were not atomic.
      MAGICDB_FAILPOINT("db.ddl.create_view");
      return catalog_.RegisterView(stmt.name, plan);
    }
    case Statement::Kind::kSelect:
      return Status::InvalidArgument(
          "Execute() is for DDL; use Run() for SELECT statements");
  }
  return Status::Internal("unhandled statement kind");
}

Status Database::LoadRows(const std::string& table, std::vector<Tuple> rows) {
  MAGICDB_ASSIGN_OR_RETURN(const CatalogEntry* entry, catalog_.Lookup(table));
  if (entry->table == nullptr) {
    return Status::InvalidArgument("relation has no storage: " + table);
  }
  MAGICDB_RETURN_IF_ERROR(
      const_cast<Table*>(entry->table)->InsertAll(std::move(rows)));
  return catalog_.Analyze(table);
}

StatusOr<LogicalPtr> Database::Bind(const std::string& sql) {
  MAGICDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(sql));
  return bound.plan;
}

StatusOr<BoundSelect> Database::BindSelect(const std::string& sql) const {
  MAGICDB_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  if (stmt.kind != Statement::Kind::kSelect) {
    return Status::InvalidArgument("expected a SELECT statement");
  }
  Binder binder(&catalog_);
  BoundSelect bound;
  MAGICDB_ASSIGN_OR_RETURN(bound.plan, binder.BindSelect(*stmt.select));
  bound.limit = stmt.select->limit;
  return bound;
}

StatusOr<PlannedSelect> Database::PlanSelect(
    const std::string& sql, const OptimizerOptions& options) const {
  MAGICDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(sql));
  return PlanBound(bound, options);
}

StatusOr<PlannedSelect> Database::PlanBound(
    const BoundSelect& bound, const OptimizerOptions& options) const {
  return PlanBound(bound, options, nullptr);
}

StatusOr<PlannedSelect> Database::PlanBound(
    const BoundSelect& bound, const OptimizerOptions& options,
    const CardinalityOverlay* overlay) const {
  Optimizer optimizer(&catalog_, options);
  optimizer.set_cardinality_overlay(overlay);
  MAGICDB_ASSIGN_OR_RETURN(OptimizedPlan optimized,
                           optimizer.Optimize(bound.plan));
  PlannedSelect planned;
  planned.bound = bound;
  planned.schema = bound.plan->schema();
  planned.root = std::move(optimized.root);
  if (bound.limit >= 0) {
    planned.root =
        std::make_unique<LimitOp>(std::move(planned.root), bound.limit);
  }
  planned.explain = std::move(optimized.explain);
  planned.est_cost = optimized.est_cost;
  planned.est_rows = optimized.est_rows;
  planned.filter_joins = std::move(optimized.filter_joins);
  planned.optimizer_stats = optimizer.stats();
  return planned;
}

void CollectFilterJoinMeasured(const Operator& root,
                               std::vector<FilterJoinMeasured>* out) {
  if (const auto* fj = dynamic_cast<const FilterJoinOp*>(&root)) {
    out->push_back(fj->measured());
  }
  for (const Operator* child : root.Children()) {
    CollectFilterJoinMeasured(*child, out);
  }
}

StatusOr<QueryResult> Database::Run(const std::string& sql,
                                    const ExecOptions& options) {
  MAGICDB_ASSIGN_OR_RETURN(BoundSelect bound, BindSelect(sql));
  DriveRequest request;
  request.plan.bound = std::move(bound);
  request.optimizer_options = optimizer_options_;
  // Start from what earlier persisting queries learned.
  request.overlay = feedback_store_.Snapshot();
  request.dop = options.dop;
  if (request.dop <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    request.dop = hw > 0 ? static_cast<int>(hw) : 1;
  }
  request.memory_limit_bytes = options.memory_limit_bytes;
  request.reoptimize_qerror_threshold = options.reoptimize_qerror_threshold;
  request.max_reoptimizations = options.max_reoptimizations;
  request.proto.set_cancel_token(ArmQueryToken(options));
  request.proto.set_batch_size(options.batch_size < 0 ? exec_batch_size_
                                                      : options.batch_size);
  MAGICDB_ASSIGN_OR_RETURN(PreparedQuery query,
                           PrepareQuery(*this, std::move(request)));
  MAGICDB_RETURN_IF_ERROR(query.status);
  if (!query.opened) {
    MAGICDB_RETURN_IF_ERROR(query.root->Open(query.ctx.get()));
  }

  QueryResult result;
  MAGICDB_ASSIGN_OR_RETURN(result.rows,
                           DrainToVector(query.root.get(), query.ctx.get()));
  result.schema = std::move(query.plan.schema);
  result.explain = std::move(query.plan.explain);
  result.est_cost = query.plan.est_cost;
  result.est_rows = query.plan.est_rows;
  result.filter_joins = std::move(query.plan.filter_joins);
  result.optimizer_stats = query.plan.optimizer_stats;
  result.counters = query.ctx->counters();
  result.filter_join_measured = query.MeasuredFilterJoins();
  result.used_dop = query.used_dop;
  result.parallel_fallback_reason = std::move(query.fallback_reason);
  result.reoptimizations =
      static_cast<int>(query.reoptimization_reasons.size());
  result.feedback = query.ctx->cardinality_feedback()->Snapshot();
  if (options.persist_feedback) feedback_store_.Fold(result.feedback);
  return result;
}

StatusOr<std::string> Database::Explain(const std::string& sql) {
  MAGICDB_ASSIGN_OR_RETURN(LogicalPtr plan, Bind(sql));
  Optimizer optimizer(&catalog_, optimizer_options_);
  MAGICDB_ASSIGN_OR_RETURN(OptimizedPlan optimized, optimizer.Optimize(plan));
  return optimized.explain;
}

}  // namespace magicdb
