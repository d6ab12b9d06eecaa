#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/optimizer/optimizer.h"
#include "tests/test_util.h"

namespace magicdb {
namespace {

using testutil::SameMultiset;

/// The paper's Figure-1 scenario: Emp, Dept, and the DepAvgSal view, with
/// knobs for how many departments are "big" and how many employees are
/// "young".
class Figure1Fixture {
 public:
  Figure1Fixture(int num_depts, int emps_per_dept, double young_frac,
                 double big_frac, uint64_t seed = 42) {
    Schema emp_schema({{"", "did", DataType::kInt64},
                       {"", "sal", DataType::kDouble},
                       {"", "age", DataType::kInt64}});
    Schema dept_schema({{"", "did", DataType::kInt64},
                        {"", "budget", DataType::kDouble}});
    emp_ = *catalog_.CreateTable("Emp", emp_schema);
    dept_ = *catalog_.CreateTable("Dept", dept_schema);

    Random rng(seed);
    for (int d = 0; d < num_depts; ++d) {
      const double budget = rng.Bernoulli(big_frac) ? 200000.0 : 50000.0;
      MAGICDB_CHECK_OK(
          dept_->Insert({Value::Int64(d), Value::Double(budget)}));
      for (int e = 0; e < emps_per_dept; ++e) {
        const int64_t age = rng.Bernoulli(young_frac) ? 25 : 45;
        const double sal = 50000.0 + rng.NextDouble() * 100000.0;
        MAGICDB_CHECK_OK(emp_->Insert(
            {Value::Int64(d), Value::Double(sal), Value::Int64(age)}));
      }
    }
    dept_->CreateHashIndex({0});
    emp_->CreateHashIndex({0});
    MAGICDB_CHECK_OK(catalog_.AnalyzeAll());

    // CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) FROM Emp GROUP BY did.
    Schema e2 = emp_->schema().WithQualifier("E2");
    auto scan = std::make_shared<RelScanNode>("Emp", "E2", e2);
    std::vector<ExprPtr> groups = {
        MakeColumnRef(0, DataType::kInt64, "E2.did")};
    std::vector<AggSpec> aggs = {
        {AggFunc::kAvg, MakeColumnRef(1, DataType::kDouble, "E2.sal"),
         "avgsal"}};
    Schema view_out(
        {{"", "did", DataType::kInt64}, {"", "avgsal", DataType::kDouble}});
    MAGICDB_CHECK_OK(catalog_.RegisterView(
        "DepAvgSal",
        std::make_shared<AggregateNode>(scan, groups, aggs, view_out)));
  }

  /// SELECT E.did, E.sal, V.avgsal FROM Emp E, Dept D, DepAvgSal V
  /// WHERE E.did=D.did AND E.did=V.did AND E.sal>V.avgsal
  ///   AND E.age<30 AND D.budget>100000.
  LogicalPtr Figure1Query() const {
    Schema e = emp_->schema().WithQualifier("E");
    Schema d = dept_->schema().WithQualifier("D");
    const CatalogEntry* ventry = *catalog_.Lookup("DepAvgSal");
    Schema v = ventry->schema.WithQualifier("V");
    auto escan = std::make_shared<RelScanNode>("Emp", "E", e);
    auto dscan = std::make_shared<RelScanNode>("Dept", "D", d);
    auto vscan = std::make_shared<RelScanNode>("DepAvgSal", "V", v);
    Schema block = e.Concat(d).Concat(v);
    // Columns: 0 E.did, 1 E.sal, 2 E.age, 3 D.did, 4 D.budget,
    //          5 V.did, 6 V.avgsal.
    auto col = [&block](int i) {
      return MakeColumnRef(i, block.column(i).type,
                           block.column(i).QualifiedName());
    };
    ExprPtr pred = ConjoinAll(
        {MakeComparison(CompareOp::kEq, col(0), col(3)),
         MakeComparison(CompareOp::kEq, col(0), col(5)),
         MakeComparison(CompareOp::kGt, col(1), col(6)),
         MakeComparison(CompareOp::kLt, col(2), MakeLiteral(Value::Int64(30))),
         MakeComparison(CompareOp::kGt, col(4),
                        MakeLiteral(Value::Double(100000.0)))});
    auto join = std::make_shared<NaryJoinNode>(
        std::vector<LogicalPtr>{escan, dscan, vscan}, pred, block);
    std::vector<ExprPtr> out_exprs = {col(0), col(1), col(6)};
    Schema out({{"", "did", DataType::kInt64},
                {"", "sal", DataType::kDouble},
                {"", "avgsal", DataType::kDouble}});
    return std::make_shared<ProjectNode>(join, out_exprs, out);
  }

  /// Brute-force reference answer.
  std::vector<Tuple> Reference() const {
    std::map<int64_t, std::pair<double, int64_t>> sums;
    for (int64_t i = 0; i < emp_->NumRows(); ++i) {
      const Tuple& r = emp_->row(i);
      auto& [sum, count] = sums[r[0].AsInt64()];
      sum += r[1].AsDouble();
      count += 1;
    }
    std::map<int64_t, double> budgets;
    for (int64_t i = 0; i < dept_->NumRows(); ++i) {
      budgets[dept_->row(i)[0].AsInt64()] = dept_->row(i)[1].AsDouble();
    }
    std::vector<Tuple> out;
    for (int64_t i = 0; i < emp_->NumRows(); ++i) {
      const Tuple& r = emp_->row(i);
      const int64_t did = r[0].AsInt64();
      if (r[2].AsInt64() >= 30) continue;
      if (budgets[did] <= 100000.0) continue;
      const double avg = sums[did].first / sums[did].second;
      if (r[1].AsDouble() > avg) {
        out.push_back({Value::Int64(did), r[1], Value::Double(avg)});
      }
    }
    return out;
  }

  Catalog catalog_;
  Table* emp_;
  Table* dept_;
};

StatusOr<std::vector<Tuple>> RunPlan(const OptimizedPlan& plan,
                                     ExecContext* ctx) {
  return ExecuteToVector(plan.root.get(), ctx);
}

TEST(OptimizerFigure1Test, CostBasedPlanIsCorrect) {
  Figure1Fixture fx(20, 10, 0.3, 0.3);
  Optimizer opt(&fx.catalog_);
  auto plan = opt.Optimize(fx.Figure1Query());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecContext ctx;
  auto rows = RunPlan(*plan, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(SameMultiset(*rows, fx.Reference()));
}

TEST(OptimizerFigure1Test, NeverMagicPlanIsCorrectAndAgrees) {
  Figure1Fixture fx(15, 8, 0.4, 0.5);
  OptimizerOptions opts;
  opts.magic_mode = OptimizerOptions::MagicMode::kNever;
  Optimizer opt(&fx.catalog_, opts);
  auto plan = opt.Optimize(fx.Figure1Query());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->explain.find("FilterJoin"), std::string::npos);
  ExecContext ctx;
  auto rows = RunPlan(*plan, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(SameMultiset(*rows, fx.Reference()));
}

TEST(OptimizerFigure1Test, AlwaysMagicPlanIsCorrect) {
  Figure1Fixture fx(15, 8, 0.4, 0.5);
  OptimizerOptions opts;
  opts.magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
  Optimizer opt(&fx.catalog_, opts);
  auto plan = opt.Optimize(fx.Figure1Query());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecContext ctx;
  auto rows = RunPlan(*plan, &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_TRUE(SameMultiset(*rows, fx.Reference()));
}

TEST(OptimizerFigure1Test, FilterJoinChosenWhenFewDepartmentsQualify) {
  // 1000 departments, almost none big or young: magic should win clearly.
  Figure1Fixture fx(300, 5, 0.02, 0.02);
  Optimizer opt(&fx.catalog_);
  auto plan = opt.Optimize(fx.Figure1Query());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explain.find("FilterJoin"), std::string::npos)
      << plan->explain;
  ASSERT_FALSE(plan->filter_joins.empty());
  // The filter set must be far smaller than the number of departments.
  EXPECT_LT(plan->filter_joins[0].filter_set_size, 300 * 0.3);
}

TEST(OptimizerFigure1Test, CostBasedNeverWorseThanBaselines) {
  for (double frac : {0.02, 0.5, 1.0}) {
    Figure1Fixture fx(100, 6, frac, frac);
    Optimizer cost_based(&fx.catalog_);
    OptimizerOptions never_opts;
    never_opts.magic_mode = OptimizerOptions::MagicMode::kNever;
    Optimizer never(&fx.catalog_, never_opts);
    OptimizerOptions always_opts;
    always_opts.magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
    Optimizer always(&fx.catalog_, always_opts);

    auto p_cost = cost_based.Optimize(fx.Figure1Query());
    auto p_never = never.Optimize(fx.Figure1Query());
    auto p_always = always.Optimize(fx.Figure1Query());
    ASSERT_TRUE(p_cost.ok());
    ASSERT_TRUE(p_never.ok());
    ASSERT_TRUE(p_always.ok());
    EXPECT_LE(p_cost->est_cost, p_never->est_cost * 1.0001) << "frac=" << frac;
    EXPECT_LE(p_cost->est_cost, p_always->est_cost * 1.0001)
        << "frac=" << frac;
  }
}

TEST(OptimizerFigure1Test, MeasuredCostTracksPrediction) {
  // When the optimizer predicts the magic plan is much cheaper, the
  // measured execution cost must agree on the direction.
  Figure1Fixture fx(200, 5, 0.05, 0.05);
  Optimizer cost_based(&fx.catalog_);
  OptimizerOptions never_opts;
  never_opts.magic_mode = OptimizerOptions::MagicMode::kNever;
  Optimizer never(&fx.catalog_, never_opts);

  auto p_cost = cost_based.Optimize(fx.Figure1Query());
  auto p_never = never.Optimize(fx.Figure1Query());
  ASSERT_TRUE(p_cost.ok());
  ASSERT_TRUE(p_never.ok());

  ExecContext ctx_cost, ctx_never;
  auto r1 = RunPlan(*p_cost, &ctx_cost);
  auto r2 = RunPlan(*p_never, &ctx_never);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(SameMultiset(*r1, *r2));
  if (p_cost->est_cost < 0.5 * p_never->est_cost) {
    EXPECT_LT(ctx_cost.counters().TotalCost(),
              ctx_never.counters().TotalCost());
  }
}

TEST(OptimizerFigure1Test, EnumerateJoinOrdersCoversFigure3) {
  Figure1Fixture fx(30, 5, 0.3, 0.3);
  Optimizer opt(&fx.catalog_);
  auto orders = opt.EnumerateJoinOrders(fx.Figure1Query());
  ASSERT_TRUE(orders.ok()) << orders.status().ToString();
  EXPECT_EQ(orders->size(), 6u);  // 3! join orders, Figure 3
  for (const JoinOrderCost& joc : *orders) {
    EXPECT_LE(joc.cost_with_filter_join,
              joc.cost_without_filter_join * 1.0001)
        << joc.methods_with;
  }
}

TEST(OptimizerFigure1Test, DPMatchesOrBeatsExhaustiveEnumeration) {
  Figure1Fixture fx(40, 5, 0.2, 0.2);
  Optimizer opt(&fx.catalog_);
  auto orders = opt.EnumerateJoinOrders(fx.Figure1Query());
  ASSERT_TRUE(orders.ok());
  double best_enumerated = -1;
  for (const JoinOrderCost& joc : *orders) {
    if (best_enumerated < 0 || joc.cost_with_filter_join < best_enumerated) {
      best_enumerated = joc.cost_with_filter_join;
    }
  }
  // The enumerator costs the join block only; re-derive the DP's block cost
  // by optimizing the bare join (no projection node).
  auto query = fx.Figure1Query();
  auto join_only = query->children()[0];
  auto plan = opt.Optimize(join_only);
  ASSERT_TRUE(plan.ok());
  // Small tolerance: the parametric equivalence-class cache fills lazily,
  // so estimates drift slightly between the enumeration pass and the DP
  // pass (more samples -> a refit of the Figure-4 line).
  EXPECT_LE(plan->est_cost, best_enumerated * 1.05);
}

TEST(OptimizerFigure1Test, StatsCountersPopulated) {
  Figure1Fixture fx(30, 5, 0.3, 0.3);
  OptimizerOptions opts;
  opts.equivalence_classes = 4;
  Optimizer opt(&fx.catalog_, opts);
  ASSERT_TRUE(opt.Optimize(fx.Figure1Query()).ok());
  const OptimizerStats& st = opt.stats();
  EXPECT_GE(st.nested_optimizations, 1);
  EXPECT_GT(st.join_steps_costed, 0);
  EXPECT_GT(st.filter_joins_costed, 0);
  EXPECT_GT(st.dp_entries, 0);
  EXPECT_LE(st.eq_class_misses, 4 * 2);  // bounded by the knob (per impl)
}

TEST(OptimizerFigure1Test, ExplainMentionsEstimates) {
  Figure1Fixture fx(10, 5, 0.5, 0.5);
  Optimizer opt(&fx.catalog_);
  auto plan = opt.Optimize(fx.Figure1Query());
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->explain.find("estimated cost="), std::string::npos);
  EXPECT_GT(plan->est_cost, 0.0);
}

TEST(OptimizerTest, TwoTableJoinPicksHashOverNL) {
  Catalog cat;
  Schema rs({{"", "k", DataType::kInt64}, {"", "x", DataType::kInt64}});
  Table* r = *cat.CreateTable("R", rs);
  Table* s = *cat.CreateTable("S", rs);
  for (int i = 0; i < 500; ++i) {
    MAGICDB_CHECK_OK(r->Insert({Value::Int64(i % 50), Value::Int64(i)}));
    MAGICDB_CHECK_OK(s->Insert({Value::Int64(i % 50), Value::Int64(i)}));
  }
  MAGICDB_CHECK_OK(cat.AnalyzeAll());
  Schema ra = r->schema().WithQualifier("R1");
  Schema sa = s->schema().WithQualifier("S1");
  auto rscan = std::make_shared<RelScanNode>("R", "R1", ra);
  auto sscan = std::make_shared<RelScanNode>("S", "S1", sa);
  Schema block = ra.Concat(sa);
  ExprPtr pred =
      MakeComparison(CompareOp::kEq, MakeColumnRef(0, DataType::kInt64),
                     MakeColumnRef(2, DataType::kInt64));
  auto join = std::make_shared<NaryJoinNode>(
      std::vector<LogicalPtr>{rscan, sscan}, pred, block);
  OptimizerOptions opts;
  opts.filter_join_on_stored = false;
  Optimizer opt(&cat, opts);
  auto plan = opt.Optimize(LogicalPtr(join));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->explain.find("NestedLoopsJoin"), std::string::npos)
      << plan->explain;
  ExecContext ctx;
  auto rows = ExecuteToVector(plan->root.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5000u);  // 50 keys x 10 x 10
}

TEST(OptimizerTest, CrossProductFallsBackToNL) {
  Catalog cat;
  Schema rs({{"", "x", DataType::kInt64}});
  Table* r = *cat.CreateTable("R", rs);
  Table* s = *cat.CreateTable("S", rs);
  for (int i = 0; i < 3; ++i) {
    MAGICDB_CHECK_OK(r->Insert({Value::Int64(i)}));
    MAGICDB_CHECK_OK(s->Insert({Value::Int64(i)}));
  }
  MAGICDB_CHECK_OK(cat.AnalyzeAll());
  auto rscan = std::make_shared<RelScanNode>(
      "R", "R1", r->schema().WithQualifier("R1"));
  auto sscan = std::make_shared<RelScanNode>(
      "S", "S1", s->schema().WithQualifier("S1"));
  Schema block = rscan->schema().Concat(sscan->schema());
  auto join = std::make_shared<NaryJoinNode>(
      std::vector<LogicalPtr>{rscan, sscan}, nullptr, block);
  Optimizer opt(&cat);
  auto plan = opt.Optimize(LogicalPtr(join));
  ASSERT_TRUE(plan.ok());
  ExecContext ctx;
  auto rows = ExecuteToVector(plan->root.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 9u);
}

TEST(OptimizerTest, RemoteJoinExecutesAndShips) {
  Catalog cat;
  Schema rs({{"", "k", DataType::kInt64}, {"", "x", DataType::kInt64}});
  Table* local = *cat.CreateTable("L", rs);
  Table* remote = *cat.CreateRemoteTable("R", rs, 2);
  for (int i = 0; i < 100; ++i) {
    MAGICDB_CHECK_OK(local->Insert({Value::Int64(i % 5), Value::Int64(i)}));
    MAGICDB_CHECK_OK(remote->Insert({Value::Int64(i % 20), Value::Int64(i)}));
  }
  MAGICDB_CHECK_OK(cat.AnalyzeAll());
  auto lscan = std::make_shared<RelScanNode>(
      "L", "L", local->schema().WithQualifier("L"));
  auto rscan = std::make_shared<RelScanNode>(
      "R", "R", remote->schema().WithQualifier("R"));
  Schema block = lscan->schema().Concat(rscan->schema());
  ExprPtr pred =
      MakeComparison(CompareOp::kEq, MakeColumnRef(0, DataType::kInt64),
                     MakeColumnRef(2, DataType::kInt64));
  auto join = std::make_shared<NaryJoinNode>(
      std::vector<LogicalPtr>{lscan, rscan}, pred, block);
  Optimizer opt(&cat);
  auto plan = opt.Optimize(LogicalPtr(join));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecContext ctx;
  auto rows = ExecuteToVector(plan->root.get(), &ctx);
  ASSERT_TRUE(rows.ok());
  // Reference: L.k in [0,5) matches R rows with k<5: 5 R-rows per key value.
  EXPECT_EQ(rows->size(), 100u * 5u);
  EXPECT_GT(ctx.counters().bytes_shipped, 0);
}

TEST(OptimizerTest, FunctionJoinBindsArguments) {
  Catalog cat;
  Schema ts({{"", "v", DataType::kInt64}});
  Table* t = *cat.CreateTable("T", ts);
  for (int i = 0; i < 30; ++i) {
    MAGICDB_CHECK_OK(t->Insert({Value::Int64(i % 4)}));
  }
  MAGICDB_CHECK_OK(cat.AnalyzeAll());
  Schema args({{"", "a", DataType::kInt64}});
  Schema results({{"", "sq", DataType::kInt64}});
  MAGICDB_CHECK_OK(cat.RegisterFunction(std::make_unique<LambdaTableFunction>(
      "square", args, results,
      [](const Tuple& in, std::vector<Tuple>* out) {
        out->push_back({Value::Int64(in[0].AsInt64() * in[0].AsInt64())});
        return Status::OK();
      })));
  auto tscan = std::make_shared<RelScanNode>(
      "T", "T", t->schema().WithQualifier("T"));
  const CatalogEntry* fentry = *cat.Lookup("square");
  auto fscan = std::make_shared<RelScanNode>(
      "square", "S", fentry->schema.WithQualifier("S"));
  Schema block = tscan->schema().Concat(fscan->schema());
  ExprPtr pred =
      MakeComparison(CompareOp::kEq, MakeColumnRef(0, DataType::kInt64),
                     MakeColumnRef(1, DataType::kInt64));
  auto join = std::make_shared<NaryJoinNode>(
      std::vector<LogicalPtr>{tscan, fscan}, pred, block);
  Optimizer opt(&cat);
  auto plan = opt.Optimize(LogicalPtr(join));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ExecContext ctx;
  auto rows = ExecuteToVector(plan->root.get(), &ctx);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 30u);
  for (const Tuple& r : *rows) {
    EXPECT_EQ(r[2].AsInt64(), r[0].AsInt64() * r[0].AsInt64());
  }
  // The optimizer must not invoke once per row when dedup is cheaper.
  EXPECT_LE(ctx.counters().function_invocations, 4);
}

TEST(OptimizerTest, FunctionFilterJoinKeepsResultColumnEquality) {
  // T.v binds the argument, T.w must equal the result: w == v * v holds on
  // one row in ten. A Filter Join into the function probes by argument
  // only, so it must apply the result-column equality after the call, as
  // the probe joins do.
  Catalog cat;
  Schema ts({{"", "v", DataType::kInt64}, {"", "w", DataType::kInt64}});
  Table* t = *cat.CreateTable("T", ts);
  for (int i = 0; i < 3000; ++i) {
    const int64_t v = i % 30;
    MAGICDB_CHECK_OK(
        t->Insert({Value::Int64(v), Value::Int64(i % 10 == 0 ? v * v : -1)}));
  }
  MAGICDB_CHECK_OK(cat.AnalyzeAll());
  MAGICDB_CHECK_OK(cat.RegisterFunction(std::make_unique<LambdaTableFunction>(
      "square", Schema({{"", "a", DataType::kInt64}}),
      Schema({{"", "sq", DataType::kInt64}}),
      [](const Tuple& in, std::vector<Tuple>* out) {
        out->push_back({Value::Int64(in[0].AsInt64() * in[0].AsInt64())});
        return Status::OK();
      })));
  auto tscan = std::make_shared<RelScanNode>(
      "T", "T", t->schema().WithQualifier("T"));
  const CatalogEntry* fentry = *cat.Lookup("square");
  auto fscan = std::make_shared<RelScanNode>(
      "square", "S", fentry->schema.WithQualifier("S"));
  Schema block = tscan->schema().Concat(fscan->schema());
  ExprPtr pred = MakeAnd(
      MakeComparison(CompareOp::kEq, MakeColumnRef(0, DataType::kInt64),
                     MakeColumnRef(2, DataType::kInt64)),
      MakeComparison(CompareOp::kEq, MakeColumnRef(1, DataType::kInt64),
                     MakeColumnRef(3, DataType::kInt64)));
  auto join = std::make_shared<NaryJoinNode>(
      std::vector<LogicalPtr>{tscan, fscan}, pred, block);
  for (auto mode : {OptimizerOptions::MagicMode::kNever,
                    OptimizerOptions::MagicMode::kCostBased}) {
    OptimizerOptions opts;
    opts.magic_mode = mode;
    opts.enable_function_memo = false;  // per-row probes lose to the FJ
    Optimizer opt(&cat, opts);
    auto plan = opt.Optimize(LogicalPtr(join));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(plan->explain.find("FilterJoin") != std::string::npos,
              mode == OptimizerOptions::MagicMode::kCostBased)
        << plan->explain;
    ExecContext ctx;
    auto rows = ExecuteToVector(plan->root.get(), &ctx);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), 300u) << plan->explain;
    EXPECT_TRUE(std::all_of(rows->begin(), rows->end(), [](const Tuple& r) {
      return r[1].AsInt64() == r[3].AsInt64();
    }));
  }
}

TEST(OptimizerTest, FunctionWithoutBindingFails) {
  Catalog cat;
  Schema args({{"", "a", DataType::kInt64}});
  Schema results({{"", "sq", DataType::kInt64}});
  MAGICDB_CHECK_OK(cat.RegisterFunction(std::make_unique<LambdaTableFunction>(
      "square", args, results,
      [](const Tuple&, std::vector<Tuple>*) { return Status::OK(); })));
  const CatalogEntry* fentry = *cat.Lookup("square");
  auto fscan = std::make_shared<RelScanNode>(
      "square", "S", fentry->schema.WithQualifier("S"));
  Optimizer opt(&cat);
  EXPECT_FALSE(opt.Optimize(LogicalPtr(fscan)).ok());
}

TEST(OptimizerTest, EquivalenceClassKnobBoundsNestedWork) {
  for (int k : {1, 2, 8}) {
    Figure1Fixture fx(50, 5, 0.3, 0.3);
    OptimizerOptions opts;
    opts.equivalence_classes = k;
    Optimizer opt(&fx.catalog_, opts);
    ASSERT_TRUE(opt.Optimize(fx.Figure1Query()).ok());
    EXPECT_LE(opt.stats().eq_class_misses, 2 * k) << "k=" << k;
  }
}

}  // namespace
}  // namespace magicdb
