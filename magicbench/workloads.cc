#include "magicbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/types/value.h"

namespace magicbench {
namespace {

using magicdb::Tuple;
using magicdb::Value;

// The benchmark's own generator (splitmix64), so the inputs do not depend
// on any code of the program under test.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi).
  int64_t Int(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo));
  }
  double Between(double lo, double hi) { return lo + (hi - lo) * Unit(); }

 private:
  uint64_t state_;
};

// Independent streams for data, statements and sequences, so changing how
// many statements a workload draws does not change its data.
enum StreamId : uint64_t { kData = 1, kStatements = 2, kSequences = 3 };
uint64_t StreamSeed(uint64_t seed, StreamId stream) {
  Rng r(seed * 0x100000001b3ULL + stream);
  return r.Next();
}

// ----- generated schema -----
//
// Emp(eid, did, sal, age), Dept(did, budget) and the Figure-1 view
// DepAvgSal; XEmp, XDept, Bonus(eid, amount) and the expensive view
// DepComp, whose definition joins inside the view. Ages are uniform over
// [20, 70) and budgets over [0, 1e6), so query constants place the
// qualifying fraction anywhere across the Fig-12 magic crossover
// (0.1%-100%). Salaries, budgets and bonuses are whole numbers stored as
// DOUBLE: averages over them are then exact, so the multiset oracle can
// compare answers of different plans without floating-point summation order
// entering the comparison.

constexpr int64_t kMinAge = 20;
constexpr int64_t kAgeSpan = 50;
constexpr int64_t kBudgetSpan = 1000000;
constexpr int64_t kMinSal = 50000;
constexpr int64_t kSalSpan = 100000;

struct Sizes {
  int64_t emps;
  int64_t depts;
  int64_t xemps;
  int64_t xdepts;
  int bonuses_per_emp;
  /// Hash indexes on the join columns (index nested loops become a choice).
  bool indexes;
};

Value WholeDouble(int64_t v) { return Value::Double(static_cast<double>(v)); }

void AddEmpDept(Rng* rng, const std::string& prefix, int64_t emps,
                int64_t depts, bool indexes, Dataset* out) {
  TableData dept{prefix + "Dept",
                 "CREATE TABLE " + prefix + "Dept (did INT, budget DOUBLE)",
                 {},
                 {}};
  dept.rows.reserve(depts);
  for (int64_t d = 0; d < depts; ++d) {
    dept.rows.push_back(
        {Value::Int64(d), WholeDouble(rng->Int(0, kBudgetSpan))});
  }
  TableData emp{prefix + "Emp",
                "CREATE TABLE " + prefix +
                    "Emp (eid INT, did INT, sal DOUBLE, age INT)",
                {},
                {}};
  emp.rows.reserve(emps);
  for (int64_t e = 0; e < emps; ++e) {
    emp.rows.push_back({Value::Int64(e), Value::Int64(rng->Int(0, depts)),
                        WholeDouble(kMinSal + rng->Int(0, kSalSpan)),
                        Value::Int64(kMinAge + rng->Int(0, kAgeSpan))});
  }
  if (indexes) {
    dept.indexes = {{0}};
    emp.indexes = {{1}, {0}};
  }
  out->tables.push_back(std::move(dept));
  out->tables.push_back(std::move(emp));
}

Dataset MakeMagicDataset(uint64_t seed, const Sizes& s) {
  Rng rng(StreamSeed(seed, kData));
  Dataset out;
  AddEmpDept(&rng, "", s.emps, s.depts, s.indexes, &out);
  AddEmpDept(&rng, "X", s.xemps, s.xdepts, s.indexes, &out);
  TableData bonus{"Bonus", "CREATE TABLE Bonus (eid INT, amount DOUBLE)", {},
                  {}};
  bonus.rows.reserve(s.xemps * s.bonuses_per_emp);
  for (int64_t e = 0; e < s.xemps; ++e) {
    for (int b = 0; b < s.bonuses_per_emp; ++b) {
      bonus.rows.push_back({Value::Int64(e), WholeDouble(rng.Int(0, 5000))});
    }
  }
  if (s.indexes) bonus.indexes = {{0}};
  out.tables.push_back(std::move(bonus));
  out.views = {
      "CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal FROM Emp "
      "GROUP BY did",
      "CREATE VIEW DepComp AS SELECT E.did, AVG(E.sal + B.amount) AS avgcomp "
      "FROM XEmp E, Bonus B WHERE E.eid = B.eid GROUP BY E.did",
  };
  return out;
}

// Star schema for planning-heavy queries: Fact(d0..d5, measure) and six
// dimensions. Dim0/Dim1 are aggregating views, Dim2/Dim3 projection views,
// Dim4/Dim5 stored tables, so a star query mixes virtual and stored inners.
constexpr int kStarDims = 6;
constexpr int64_t kStarDimRows = 100;

void AddStar(Rng* rng, int64_t fact_rows, Dataset* out) {
  std::string cols;
  for (int i = 0; i < kStarDims; ++i) cols += "d" + std::to_string(i) + " INT, ";
  TableData fact{"Fact", "CREATE TABLE Fact (" + cols + "measure DOUBLE)", {},
                 {}};
  for (int64_t r = 0; r < fact_rows; ++r) {
    Tuple t;
    for (int i = 0; i < kStarDims; ++i) {
      t.push_back(Value::Int64(rng->Int(0, kStarDimRows)));
    }
    t.push_back(WholeDouble(rng->Int(0, 1000)));
    fact.rows.push_back(std::move(t));
  }
  out->tables.push_back(std::move(fact));
  for (int i = 0; i < kStarDims; ++i) {
    const std::string dim = "Dim" + std::to_string(i);
    const std::string stored = i < 4 ? "DimBase" + std::to_string(i) : dim;
    TableData t{stored, "CREATE TABLE " + stored + " (id INT, attr INT)", {},
                {{0}}};
    for (int64_t r = 0; r < kStarDimRows; ++r) {
      t.rows.push_back({Value::Int64(r), Value::Int64(rng->Int(0, 10))});
    }
    out->tables.push_back(std::move(t));
    if (i < 2) {
      out->views.push_back("CREATE VIEW " + dim +
                           " AS SELECT id, MAX(attr) AS attr FROM " + stored +
                           " GROUP BY id");
    } else if (i < 4) {
      out->views.push_back("CREATE VIEW " + dim + " AS SELECT id, attr FROM " +
                           stored);
    }
  }
}

// ----- statement constants -----

// `E.age < AgeBound(f)` qualifies about fraction f of employees (at least
// one age value).
int64_t AgeBound(double frac) {
  const int64_t ages = std::clamp<int64_t>(std::llround(frac * kAgeSpan), 1,
                                           kAgeSpan);
  return kMinAge + ages;
}
// `D.budget > BudgetBound(f)` qualifies fraction f of departments.
int64_t BudgetBound(double frac) {
  return std::llround((1.0 - frac) * static_cast<double>(kBudgetSpan));
}
// `E.sal < SalBound(f)` qualifies fraction f of employees.
int64_t SalBound(double frac) {
  return kMinSal + std::llround(frac * static_cast<double>(kSalSpan));
}

std::string S(int64_t v) { return std::to_string(v); }

std::string Figure1Sql(const std::string& prefix, const std::string& view,
                       const std::string& col, int64_t age, int64_t budget) {
  return "SELECT E.did, E.sal, V." + col + " FROM " + prefix + "Emp E, " +
         prefix + "Dept D, " + view +
         " V WHERE E.did = D.did AND E.did = V.did AND E.sal > V." + col +
         " AND E.age < " + S(age) + " AND D.budget > " + S(budget);
}

// ----- views_adhoc -----
//
// Why: planning does most of the work. sql + optimizer are about 37% of a
// Figure-1 query on small data and about 90% of a 6-dimension star query,
// so this is where bind and DP planning cost shows end to end. Qualifying
// fractions are swept log-uniformly over 0.1%-100%, across the Fig-12
// crossover, so the cost-based choice of a Filter Join goes both ways.
// Most statement texts are new to the plan cache, a hot set repeats, and
// one session appends into an ingest table every few queries: each append
// bumps the DDL epoch, invalidating the plan cache and staling in-flight
// cursors. Replaces the server-QPS sections of BENCH_7..10.

// The template mix is stratified: statement i of the pool has template
// kAdhocCycle[i % kAdhocCycleLen], and each position of a session's pass
// draws a statement of a fixed template, so the mix is the same on every
// seed and only the constants and data vary.
enum class Adhoc { kFigure1, kBigOnly, kYoungOnly, kExpensive, kStar };
constexpr int kAdhocCycleLen = 20;
const Adhoc kAdhocCycle[kAdhocCycleLen] = {
    Adhoc::kFigure1,   Adhoc::kStar,      Adhoc::kExpensive, Adhoc::kBigOnly,
    Adhoc::kFigure1,   Adhoc::kStar,      Adhoc::kYoungOnly, Adhoc::kExpensive,
    Adhoc::kFigure1,   Adhoc::kStar,      Adhoc::kExpensive, Adhoc::kStar,
    Adhoc::kFigure1,   Adhoc::kBigOnly,   Adhoc::kStar,      Adhoc::kExpensive,
    Adhoc::kFigure1,   Adhoc::kYoungOnly, Adhoc::kStar,      Adhoc::kStar,
};
// Star joins by cycle slot: the seven star slots join 4, 4, 4, 5, 5, 6 and
// 6 dimensions.
int StarDims(int slot) {
  int k = 0;
  for (int i = 0; i <= slot; ++i) k += kAdhocCycle[i] == Adhoc::kStar;
  return k <= 3 ? 4 : k <= 5 ? 5 : 6;
}
constexpr int kAdhocPool = 30 * kAdhocCycleLen;
// The hot set is the pool's first cycle: one statement per slot.
constexpr int kAdhocPass = 300;

// Statement `index` of the pool. Its qualifying fraction is log-uniform in
// [0.001, 1], stratified over the pool's cycles so that every seed sweeps
// the range evenly, and split at random between the age and budget
// predicates.
std::string AdhocStatement(Rng* rng, int index, std::string* tmpl) {
  constexpr int kCycles = kAdhocPool / kAdhocCycleLen;
  const int slot = index % kAdhocCycleLen;
  const int stratum = (index / kAdhocCycleLen * 7 + slot * 11) % kCycles;
  const double total =
      std::pow(10.0, -3.0 * (stratum + rng->Unit()) / kCycles);
  const double split = rng->Unit();
  const double young = std::pow(total, split);
  const double big = std::pow(total, 1.0 - split);
  switch (kAdhocCycle[slot]) {
    case Adhoc::kFigure1:
      *tmpl = "figure1";
      return Figure1Sql("", "DepAvgSal", "avgsal", AgeBound(young),
                        BudgetBound(big));
    case Adhoc::kBigOnly:
      *tmpl = "sips_big_only";
      return "SELECT D.did, V.avgsal FROM Dept D, DepAvgSal V WHERE D.did = "
             "V.did AND D.budget > " +
             S(BudgetBound(total));
    case Adhoc::kYoungOnly:
      *tmpl = "sips_young_only";
      return "SELECT E.did, E.sal, V.avgsal FROM Emp E, DepAvgSal V WHERE "
             "E.did = V.did AND E.sal > V.avgsal AND E.age < " +
             S(AgeBound(total));
    case Adhoc::kExpensive:
      *tmpl = "expensive_view";
      return Figure1Sql("X", "DepComp", "avgcomp", AgeBound(young),
                        BudgetBound(big));
    case Adhoc::kStar:
      break;
  }
  // Star join of k of the six dimensions, chosen from the seed.
  const int k = StarDims(slot);
  *tmpl = "star" + S(k);
  std::vector<int> dims(kStarDims);
  for (int i = 0; i < kStarDims; ++i) dims[i] = i;
  for (int i = 0; i < k; ++i) {
    std::swap(dims[i], dims[rng->Int(i, kStarDims)]);
  }
  std::sort(dims.begin(), dims.begin() + k);
  std::string from = "Fact F";
  std::string where;
  for (int j = 0; j < k; ++j) {
    const std::string d = "D" + S(dims[j]);
    from += ", Dim" + S(dims[j]) + " " + d;
    if (!where.empty()) where += " AND ";
    where += "F.d" + S(dims[j]) + " = " + d + ".id AND " + d + ".attr < " +
             S(rng->Int(2, 10));
  }
  return "SELECT F.measure FROM " + from + " WHERE " + where;
}

void MakeViewsAdhoc(uint64_t seed, Workload* w) {
  w->sessions = 4;
  w->dop = 1;
  w->setups = 5;
  w->gate = Gate::kMagicOracle;
  w->memory_limit_bytes = int64_t{1} << 30;
  w->make_dataset = [seed] {
    Dataset d = MakeMagicDataset(
        seed, Sizes{4000, 400, 2000, 400, 4, /*indexes=*/true});
    Rng rng(StreamSeed(seed, kData) ^ 0x5a5a);
    AddStar(&rng, 2000, &d);
    d.tables.push_back(
        {"Ingest", "CREATE TABLE Ingest (k INT, v DOUBLE)", {}, {}});
    return d;
  };
  Rng rng(StreamSeed(seed, kStatements));
  for (int i = 0; i < kAdhocPool; ++i) {
    Statement st;
    st.sql = AdhocStatement(&rng, i, &st.tmpl);
    w->statements.push_back(std::move(st));
  }
  Rng seq(StreamSeed(seed, kSequences));
  for (int s = 0; s < w->sessions; ++s) {
    std::vector<int> pass;
    for (int i = 0; i < kAdhocPass; ++i) {
      // A quarter of the draws repeat the hot statement of the slot.
      const int slot = (i + 5 * s) % kAdhocCycleLen;
      const int cycle = seq.Unit() < 0.25
                            ? 0
                            : static_cast<int>(seq.Int(1, kAdhocPool /
                                                              kAdhocCycleLen));
      pass.push_back(cycle * kAdhocCycleLen + slot);
    }
    w->sequences.push_back(std::move(pass));
  }
  for (int i = 0; i < kAdhocCycleLen; ++i) w->warmup.push_back(i);
  w->write_every = 24;
  w->ingest_table = "Ingest";
  w->make_ingest_batch = [seed](int64_t batch) {
    Rng r(StreamSeed(seed, kData) + static_cast<uint64_t>(batch));
    std::vector<Tuple> rows;
    for (int i = 0; i < 64; ++i) {
      rows.push_back({Value::Int64(batch * 64 + i), WholeDouble(r.Int(0, 1000))});
    }
    return rows;
  };
}

// ----- analytic and analytic_spill -----
//
// analytic. Why: exec + parallel do most of the work and planning is under
// 1%. About 1M employees in memory, one session fetching through cursors
// at DoP min(4, nproc). Nested loops, index nested loops and sort-merge are
// disabled so every plan stays parallel-safe (parallel.fallbacks = 0).
// Replaces the batch_vs_row, parallel-scaling and streaming sections of
// BENCH_7..10 (their wall-clock figures were single medians; the
// BENCH_9->10 doubling of scan_filter_project could never be told from
// noise).
//
// analytic_spill. Why: the same exec operators under memory pressure, on
// the DoP-1 sequential paths analytic bypasses: a per-query memory limit
// forces Grace hash join, hybrid hash aggregation and external sort, with
// spill files written beside reads. The same templates on a tenth of the
// data, plus an ORDER BY template (the parallel executor has no Sort, so
// analytic cannot carry it). Replaces the low_memory section of BENCH_7..10.
// The limit is 1 MiB, with the spilling templates' state several times
// larger. At 256-512 KiB some seeds make Grace hash join or external sort
// fail with kResourceExhausted a few KB over the limit instead of spilling
// further; that defect is left to the chaos tests, not timed here. Figure-1
// and the expensive view may spill but are not required to: whether their
// Filter Join restricts the view below the limit depends on the constants.

constexpr int kAnalyticVariants = 4;

struct AnalyticTemplate {
  const char* name;
  bool spills;  // must spill under analytic_spill's memory limit
  /// Draws one statement; `spill` selects analytic_spill's constants, which
  /// grow the state of the spilling templates well past its limit.
  std::string (*make)(Rng*, bool spill);
};

const AnalyticTemplate kAnalyticTemplates[] = {
    {"scan_filter_project", false,
     [](Rng* r, bool) {
       return "SELECT E.eid, E.did, E.sal + " + S(r->Int(100, 1000)) +
              ".0 AS pay FROM Emp E WHERE E.sal < " +
              S(SalBound(r->Between(0.045, 0.055)));
     }},
    {"group_by_low", false,
     [](Rng* r, bool) {
       return "SELECT E.age, COUNT(*) AS n, SUM(E.did) AS s, MIN(E.sal) AS m "
              "FROM Emp E WHERE E.sal < " +
              S(SalBound(r->Between(0.9, 1.0))) + " GROUP BY E.age";
     }},
    {"group_by_high", true,
     [](Rng* r, bool spill) {
       const double f = spill ? r->Between(0.17, 0.19) : r->Between(0.045, 0.055);
       return "SELECT E.did, E.age, COUNT(*) AS n, SUM(E.sal) AS s FROM Emp E "
              "WHERE E.sal < " +
              S(SalBound(f)) + " GROUP BY E.did, E.age";
     }},
    {"hash_join", true,
     [](Rng* r, bool spill) {
       // Both inputs are large filtered scans of Emp, so the build side
       // outgrows analytic_spill's limit and the join goes Grace.
       const double a = spill ? r->Between(0.43, 0.47) : r->Between(0.09, 0.11);
       const double b = spill ? r->Between(0.43, 0.47) : r->Between(0.045, 0.055);
       return "SELECT A.eid, A.sal, B.age FROM Emp A, Emp B WHERE A.eid = "
              "B.eid AND A.age < " +
              S(AgeBound(a)) + " AND B.sal < " + S(SalBound(b));
     }},
    {"figure1_selective", false,
     [](Rng* r, bool) {
       return Figure1Sql("", "DepAvgSal", "avgsal", AgeBound(0.04),
                         BudgetBound(r->Between(0.015, 0.025)));
     }},
    {"expensive_view", false,
     [](Rng* r, bool) {
       return Figure1Sql("X", "DepComp", "avgcomp", AgeBound(0.06),
                         BudgetBound(r->Between(0.015, 0.025)));
     }},
    {"order_by", true,
     [](Rng* r, bool) {
       return "SELECT E.eid, E.sal, E.age FROM Emp E WHERE E.sal < " +
              S(SalBound(r->Between(0.63, 0.67))) +
              " ORDER BY sal DESC, eid";
     }},
};

void MakeAnalytic(uint64_t seed, bool spill, int dop, Workload* w) {
  w->sessions = 1;
  w->dop = spill ? 1 : dop;
  w->setups = 3;
  w->optimizer.enable_nested_loops = false;
  w->optimizer.enable_index_nested_loops = false;
  w->optimizer.enable_sort_merge = false;
  if (spill) {
    w->gate = Gate::kInMemoryIdentity;
    w->memory_limit_bytes = 1024 * 1024;
    // The result queue is charged to the limit and cannot spill; keep it
    // (plus one quantum) well under the limit.
    w->stream_queue_rows = 256;
    w->scheduler_quantum_rows = 256;
    w->spill = true;
    w->make_dataset = [seed] {
      return MakeMagicDataset(seed,
                              Sizes{100000, 1000, 10000, 1000, 4, false});
    };
  } else {
    w->gate = Gate::kDopOneIdentity;
    w->memory_limit_bytes = int64_t{1} << 32;
    w->make_dataset = [seed] {
      return MakeMagicDataset(seed,
                              Sizes{1000000, 10000, 50000, 10000, 4, false});
    };
  }
  Rng rng(StreamSeed(seed, kStatements));
  std::vector<const AnalyticTemplate*> templates;
  for (const AnalyticTemplate& t : kAnalyticTemplates) {
    if (spill || std::string(t.name) != "order_by") templates.push_back(&t);
  }
  // statements[t * V + v] = variant v of template t.
  for (const AnalyticTemplate* t : templates) {
    for (int v = 0; v < kAnalyticVariants; ++v) {
      Statement st;
      st.tmpl = t->name;
      st.sql = t->make(&rng, spill);
      st.expect_spill = spill && t->spills;
      w->statements.push_back(std::move(st));
    }
  }
  // One pass = kAnalyticVariants rounds in a fixed template order, so each
  // run has the same template mix; the order in which a template's variants
  // appear is drawn from the seed. analytic runs its two cheapest templates
  // three times per round: of the round's ten queries, the median latency
  // then lies inside the group_by_low cluster instead of on the edge
  // between two templates, where it would jump between them from run to
  // run. analytic_spill's seven templates already put it mid-cluster.
  const std::vector<int> round = spill ? std::vector<int>{0, 1, 2, 3, 4, 5, 6}
                                       : std::vector<int>{0, 1, 0, 3, 1, 2, 0,
                                                          4, 1, 5};
  Rng seq(StreamSeed(seed, kSequences));
  const int n = static_cast<int>(templates.size());
  std::vector<std::vector<int>> order(n);
  for (int t = 0; t < n; ++t) {
    for (int v = 0; v < kAnalyticVariants; ++v) order[t].push_back(v);
    for (int v = kAnalyticVariants - 1; v > 0; --v) {
      std::swap(order[t][v], order[t][seq.Int(0, v + 1)]);
    }
  }
  std::vector<int> pass;
  std::vector<int> seen(n, 0);
  for (int r = 0; r < kAnalyticVariants; ++r) {
    for (int t : round) {
      pass.push_back(t * kAnalyticVariants +
                     order[t][seen[t]++ % kAnalyticVariants]);
    }
  }
  w->sequences = {pass};
  for (int t = 0; t < n; ++t) w->warmup.push_back(t * kAnalyticVariants);
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"views_adhoc", "analytic", "analytic_spill"};
}

bool MakeWorkload(const std::string& name, uint64_t seed, int dop,
                  Workload* out) {
  *out = Workload();
  out->name = name;
  if (name == "views_adhoc") {
    MakeViewsAdhoc(seed, out);
  } else if (name == "analytic") {
    MakeAnalytic(seed, /*spill=*/false, dop, out);
  } else if (name == "analytic_spill") {
    MakeAnalytic(seed, /*spill=*/true, dop, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace magicbench
