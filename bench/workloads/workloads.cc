#include "workloads/workloads.h"

#include <cmath>
#include <sstream>

#include "src/common/logging.h"
#include "src/common/random.h"

namespace magicdb::bench {

const char* kFigure1Query =
    "SELECT E.did, E.sal, V.avgsal "
    "FROM Emp E, Dept D, DepAvgSal V "
    "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgsal "
    "AND E.age < 30 AND D.budget > 100000";

const char* kFigure1QueryBigOnly =
    "SELECT D.did, V.avgsal "
    "FROM Dept D, DepAvgSal V "
    "WHERE D.did = V.did AND D.budget > 100000";

const char* kFigure1QueryYoungOnly =
    "SELECT E.did, E.sal, V.avgsal "
    "FROM Emp E, DepAvgSal V "
    "WHERE E.did = V.did AND E.sal > V.avgsal AND E.age < 30";

std::unique_ptr<Database> MakeFigure1Database(const Figure1Options& opts) {
  auto db = std::make_unique<Database>();
  MAGICDB_CHECK_OK(
      db->Execute("CREATE TABLE Emp (did INT, sal DOUBLE, age INT)"));
  if (opts.dept_site > 0) {
    Schema dept_schema(
        {{"", "did", DataType::kInt64}, {"", "budget", DataType::kDouble}});
    MAGICDB_CHECK_OK(
        db->catalog()->CreateRemoteTable("Dept", dept_schema, opts.dept_site)
            .status());
  } else {
    MAGICDB_CHECK_OK(
        db->Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  }

  Random rng(opts.seed);
  std::vector<Tuple> emps, depts;
  for (int d = 0; d < opts.num_depts; ++d) {
    depts.push_back(
        {Value::Int64(d),
         Value::Double(rng.Bernoulli(opts.big_frac) ? 200000.0 : 50000.0)});
    for (int e = 0; e < opts.emps_per_dept; ++e) {
      emps.push_back(
          {Value::Int64(d),
           Value::Double(50000.0 + rng.NextDouble() * 100000.0),
           Value::Int64(rng.Bernoulli(opts.young_frac) ? 25 : 45)});
    }
  }
  MAGICDB_CHECK_OK(db->LoadRows("Dept", std::move(depts)));
  MAGICDB_CHECK_OK(db->LoadRows("Emp", std::move(emps)));
  if (opts.build_indexes) {
    (*db->catalog()->Lookup("Emp"))->table->CreateHashIndex({0});
    (*db->catalog()->Lookup("Dept"))->table->CreateHashIndex({0});
    MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  }
  MAGICDB_CHECK_OK(
      db->Execute("CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal "
                  "FROM Emp GROUP BY did"));
  return db;
}

const char* kExpensiveViewQuery =
    "SELECT E.did, E.sal, V.avgcomp "
    "FROM Emp E, Dept D, DepComp V "
    "WHERE E.did = D.did AND E.did = V.did AND E.sal > V.avgcomp "
    "AND E.age < 30 AND D.budget > 100000";

std::unique_ptr<Database> MakeExpensiveViewDatabase(
    const ExpensiveViewOptions& opts) {
  auto db = std::make_unique<Database>();
  MAGICDB_CHECK_OK(db->Execute(
      "CREATE TABLE Emp (eid INT, did INT, sal DOUBLE, age INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Dept (did INT, budget DOUBLE)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Bonus (eid INT, amount DOUBLE)"));

  Random rng(opts.seed);
  std::vector<Tuple> emps, depts, bonuses;
  int64_t eid = 0;
  for (int d = 0; d < opts.num_depts; ++d) {
    depts.push_back(
        {Value::Int64(d),
         Value::Double(rng.Bernoulli(opts.big_frac) ? 200000.0 : 50000.0)});
    for (int e = 0; e < opts.emps_per_dept; ++e, ++eid) {
      emps.push_back(
          {Value::Int64(eid), Value::Int64(d),
           Value::Double(50000.0 + rng.NextDouble() * 100000.0),
           Value::Int64(rng.Bernoulli(opts.young_frac) ? 25 : 45)});
      for (int b = 0; b < opts.bonuses_per_emp; ++b) {
        bonuses.push_back(
            {Value::Int64(eid), Value::Double(rng.NextDouble() * 5000.0)});
      }
    }
  }
  MAGICDB_CHECK_OK(db->LoadRows("Dept", std::move(depts)));
  MAGICDB_CHECK_OK(db->LoadRows("Emp", std::move(emps)));
  MAGICDB_CHECK_OK(db->LoadRows("Bonus", std::move(bonuses)));
  (*db->catalog()->Lookup("Emp"))->table->CreateHashIndex({1});    // did
  (*db->catalog()->Lookup("Emp"))->table->CreateHashIndex({0});    // eid
  (*db->catalog()->Lookup("Dept"))->table->CreateHashIndex({0});
  (*db->catalog()->Lookup("Bonus"))->table->CreateHashIndex({0});  // eid
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  MAGICDB_CHECK_OK(db->Execute(
      "CREATE VIEW DepComp AS SELECT E.did, AVG(E.sal + B.amount) AS "
      "avgcomp FROM Emp E, Bonus B WHERE E.eid = B.eid GROUP BY E.did"));
  return db;
}

const char* kTwoTableQuery =
    "SELECT R.k, R.p0, S.p0 FROM R, S WHERE R.k = S.k";

std::unique_ptr<Database> MakeTwoTableDatabase(const TwoTableOptions& opts) {
  auto db = std::make_unique<Database>();
  std::string cols = "(k INT";
  for (int i = 0; i < opts.payload_cols; ++i) {
    cols += ", p" + std::to_string(i) + " INT";
  }
  cols += ")";
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE R " + cols));
  if (opts.s_site > 0) {
    Schema s_schema({{"", "k", DataType::kInt64}});
    for (int i = 0; i < opts.payload_cols; ++i) {
      s_schema.AddColumn({"", "p" + std::to_string(i), DataType::kInt64});
    }
    MAGICDB_CHECK_OK(
        db->catalog()->CreateRemoteTable("S", s_schema, opts.s_site)
            .status());
  } else {
    MAGICDB_CHECK_OK(db->Execute("CREATE TABLE S " + cols));
  }

  Random rng(opts.seed);
  auto make_rows = [&](int n, int keys) {
    std::vector<Tuple> rows;
    rows.reserve(n);
    for (int i = 0; i < n; ++i) {
      Tuple t = {Value::Int64(static_cast<int64_t>(rng.Uniform(keys)))};
      for (int c = 0; c < opts.payload_cols; ++c) {
        t.push_back(Value::Int64(i));
      }
      rows.push_back(std::move(t));
    }
    return rows;
  };
  MAGICDB_CHECK_OK(db->LoadRows("R", make_rows(opts.r_rows, opts.r_keys)));
  MAGICDB_CHECK_OK(db->LoadRows("S", make_rows(opts.s_rows, opts.s_keys)));
  if (opts.build_indexes) {
    (*db->catalog()->Lookup("R"))->table->CreateHashIndex({0});
    (*db->catalog()->Lookup("S"))->table->CreateHashIndex({0});
    MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  }
  return db;
}

const char* kUdrQuery =
    "SELECT C.arg, F.result FROM Calls C, compute F WHERE C.arg = F.arg";

std::unique_ptr<Database> MakeUdrDatabase(const UdrOptions& opts) {
  auto db = std::make_unique<Database>();
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Calls (arg INT, tag INT)"));
  Random rng(opts.seed);
  std::vector<Tuple> rows;
  for (int i = 0; i < opts.calls; ++i) {
    rows.push_back(
        {Value::Int64(static_cast<int64_t>(rng.Uniform(opts.distinct_args))),
         Value::Int64(i)});
  }
  MAGICDB_CHECK_OK(db->LoadRows("Calls", std::move(rows)));
  Schema args({{"", "arg", DataType::kInt64}});
  Schema results({{"", "result", DataType::kInt64}});
  MAGICDB_CHECK_OK(db->catalog()->RegisterFunction(
      std::make_unique<LambdaTableFunction>(
          "compute", args, results,
          [](const Tuple& in, std::vector<Tuple>* out) {
            // A deliberately "expensive" deterministic computation.
            int64_t x = in[0].AsInt64();
            int64_t acc = 0;
            for (int i = 0; i < 64; ++i) acc = acc * 31 + ((x + i) % 97);
            out->push_back({Value::Int64(acc)});
            return Status::OK();
          })));
  return db;
}

const char* kSkewedChainQuery =
    "SELECT F.k, R.w FROM Mid M, Fact F, Red R "
    "WHERE F.k = M.k AND M.j = R.j AND F.a < 1 AND F.b < 1";

std::unique_ptr<Database> MakeSkewedChainDatabase(
    const SkewedChainOptions& opts) {
  auto db = std::make_unique<Database>();
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Fact (k INT, a INT, b INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Mid (k INT, j INT)"));
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Red (j INT, w INT)"));
  std::vector<Tuple> fact, mid, red;
  fact.reserve(opts.fact_rows);
  // a == b on every row: each predicate alone passes 10% and the histogram
  // knows it, but the conjunction also passes 10% where independence
  // predicts 1%.
  for (int i = 0; i < opts.fact_rows; ++i) {
    fact.push_back({Value::Int64(i % opts.keys), Value::Int64(i % 10),
                    Value::Int64(i % 10)});
  }
  mid.reserve(static_cast<size_t>(opts.keys) * opts.mid_fanout);
  for (int k = 0; k < opts.keys; ++k) {
    for (int t = 0; t < opts.mid_fanout; ++t) {
      const int64_t j = static_cast<int64_t>(k) * opts.mid_fanout + t;
      mid.push_back({Value::Int64(k), Value::Int64(j)});
      if (j % opts.red_every == 0) {
        red.push_back({Value::Int64(j), Value::Int64(j * 3)});
      }
    }
  }
  MAGICDB_CHECK_OK(db->LoadRows("Fact", std::move(fact)));
  MAGICDB_CHECK_OK(db->LoadRows("Mid", std::move(mid)));
  MAGICDB_CHECK_OK(db->LoadRows("Red", std::move(red)));
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  return db;
}

std::unique_ptr<Database> MakeStarDatabase(const StarOptions& opts) {
  auto db = std::make_unique<Database>();
  // Fact(d0, d1, ..., measure)
  std::string fact_cols = "(";
  for (int i = 0; i < opts.num_dims; ++i) {
    fact_cols += "d" + std::to_string(i) + " INT, ";
  }
  fact_cols += "measure DOUBLE)";
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Fact " + fact_cols));
  Random rng(opts.seed);
  std::vector<Tuple> fact_rows;
  for (int r = 0; r < opts.fact_rows; ++r) {
    Tuple t;
    for (int i = 0; i < opts.num_dims; ++i) {
      t.push_back(Value::Int64(static_cast<int64_t>(rng.Uniform(
          static_cast<uint64_t>(opts.dim_rows)))));
    }
    t.push_back(Value::Double(rng.NextDouble() * 100));
    fact_rows.push_back(std::move(t));
  }
  MAGICDB_CHECK_OK(db->LoadRows("Fact", std::move(fact_rows)));

  for (int i = 0; i < opts.num_dims; ++i) {
    const bool stored = i >= opts.num_dims - opts.stored_dims;
    const std::string base =
        (stored ? "Dim" : "DimBase") + std::to_string(i);
    MAGICDB_CHECK_OK(
        db->Execute("CREATE TABLE " + base + " (id INT, attr INT)"));
    std::vector<Tuple> rows;
    for (int r = 0; r < opts.dim_rows; ++r) {
      rows.push_back({Value::Int64(r),
                      Value::Int64(static_cast<int64_t>(rng.Uniform(10)))});
    }
    MAGICDB_CHECK_OK(db->LoadRows(base, std::move(rows)));
    (*db->catalog()->Lookup(base))->table->CreateHashIndex({0});
    const std::string dim = "Dim" + std::to_string(i);
    if (stored) continue;
    if (i < opts.view_dims) {
      // Dimension exposed through an aggregating view (a virtual relation).
      MAGICDB_CHECK_OK(db->Execute(
          "CREATE VIEW " + dim + " AS SELECT id, MAX(attr) AS attr FROM " +
          base + " GROUP BY id"));
    } else {
      MAGICDB_CHECK_OK(db->Execute("CREATE VIEW " + dim +
                                   " AS SELECT id, attr FROM " + base));
    }
  }
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  return db;
}

std::string StarQuery(int num_dims) {
  std::string from = "Fact F";
  std::string where;
  for (int i = 0; i < num_dims; ++i) {
    const std::string d = "D" + std::to_string(i);
    from += ", Dim" + std::to_string(i) + " " + d;
    if (!where.empty()) where += " AND ";
    where += "F.d" + std::to_string(i) + " = " + d + ".id";
    where += " AND " + d + ".attr < 5";
  }
  return "SELECT F.measure FROM " + from + " WHERE " + where;
}

std::string FormatCost(double cost) {
  std::ostringstream os;
  if (cost >= 1000) {
    os.precision(0);
  } else if (cost >= 10) {
    os.precision(1);
  } else {
    os.precision(3);
  }
  os << std::fixed << cost;
  return os.str();
}

}  // namespace magicdb::bench
