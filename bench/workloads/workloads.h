#ifndef MAGICDB_BENCH_WORKLOADS_WORKLOADS_H_
#define MAGICDB_BENCH_WORKLOADS_WORKLOADS_H_

// Workload generators for the paper-reproduction benchmarks (see DESIGN.md
// experiment index). All generators are deterministic given the seed.

#include <memory>
#include <string>

#include "src/db/database.h"

namespace magicdb::bench {

/// The motivating workload of Figure 1: Emp(did, sal, age),
/// Dept(did, budget), and the DepAvgSal view. The two fractions control how
/// many departments qualify — the knob the paper's argument turns on.
struct Figure1Options {
  int num_depts = 100;
  int emps_per_dept = 10;
  double young_frac = 0.3;  // P(emp.age < 30)
  double big_frac = 0.3;    // P(dept.budget > 100000)
  uint64_t seed = 42;
  /// Home Dept at this site (> 0) to make the query distributed.
  int dept_site = 0;
  /// Build hash indexes on the join columns (enables index nested loops).
  bool build_indexes = true;
};

std::unique_ptr<Database> MakeFigure1Database(const Figure1Options& opts);

/// The Figure-1 query text (binds against MakeFigure1Database).
extern const char* kFigure1Query;

/// Variants of the Figure-1 query used by the SIPS ablation (E11): the
/// production set restricted to big departments only, young employees only,
/// or nothing.
extern const char* kFigure1QueryBigOnly;
extern const char* kFigure1QueryYoungOnly;

/// The "expensive view" variant of Figure 1: total compensation requires a
/// join inside the view, so computing it for every department is far more
/// expensive than for the qualifying few — the regime where the paper's
/// orders-of-magnitude claims for magic apply.
///
///   Emp(eid, did, sal, age), Dept(did, budget), Bonus(eid, amount),
///   DepComp = SELECT E.did, AVG(E.sal + B.amount) FROM Emp E, Bonus B
///             WHERE E.eid = B.eid GROUP BY E.did.
struct ExpensiveViewOptions {
  int num_depts = 500;
  int emps_per_dept = 5;
  int bonuses_per_emp = 4;
  double young_frac = 0.05;
  double big_frac = 0.05;
  uint64_t seed = 99;
};

std::unique_ptr<Database> MakeExpensiveViewDatabase(
    const ExpensiveViewOptions& opts);

extern const char* kExpensiveViewQuery;

/// Two stored relations R(k, payload) and S(k, payload) with controllable
/// key counts — the local semi-join workload (§5.3) and the distributed
/// workload (§5.1, with `s_site` > 0).
struct TwoTableOptions {
  int r_rows = 1000;
  int s_rows = 10000;
  int r_keys = 100;   // distinct join keys in R
  int s_keys = 1000;  // distinct join keys in S
  int payload_cols = 2;
  uint64_t seed = 7;
  int s_site = 0;
  bool build_indexes = true;
};

std::unique_ptr<Database> MakeTwoTableDatabase(const TwoTableOptions& opts);

/// Join query over the two-table schema: SELECT ... FROM R, S WHERE R.k=S.k.
extern const char* kTwoTableQuery;

/// UDR workload (§5.2): a table Calls(arg, tag) and a registered table
/// function "compute" whose per-invocation cost dominates. `distinct_args`
/// controls the duplication factor.
struct UdrOptions {
  int calls = 1000;
  int distinct_args = 50;
  uint64_t seed = 13;
};

std::unique_ptr<Database> MakeUdrDatabase(const UdrOptions& opts);

extern const char* kUdrQuery;

/// Skewed three-table chain for the adaptive re-optimization bake-off:
/// Fact(k, a, b) carries a == b on every row, so the conjunctive filter
/// `F.a < 1 AND F.b < 1` is 10x underestimated under the optimizer's
/// independence assumption (1% estimated, 10% actual). Mid(k, j) expands
/// every Fact key by `mid_fanout`; Red(j, w) keeps only every
/// `red_every`-th j value. Planned from the estimate, driving the joins
/// from the "tiny" filtered Fact looks cheapest; with the true
/// cardinality that order materializes a `mid_fanout`-times exploded
/// intermediate, and reducing Mid by Red first is far cheaper. The gap
/// between those two orders is exactly what runtime cardinality feedback
/// recovers.
struct SkewedChainOptions {
  int fact_rows = 40000;
  int keys = 4500;      // distinct k in Fact and Mid
  int mid_fanout = 10;  // Mid rows per key
  int red_every = 7;    // Red keeps every red_every-th j value
};

std::unique_ptr<Database> MakeSkewedChainDatabase(
    const SkewedChainOptions& opts);

/// Chain query over the skewed schema. Run it with a planning memory
/// budget small enough that every build side is priced by the HashSpill
/// term: the optimizer then strictly builds the smaller input, which puts
/// the underestimated filtered Fact on the observable (build) side of its
/// first hash join.
extern const char* kSkewedChainQuery;

/// Star-schema generator for the optimizer-complexity experiment (E7):
/// a fact table joined with `num_dims` dimension tables, optionally turning
/// some dimensions into views.
struct StarOptions {
  int num_dims = 4;
  int fact_rows = 2000;
  int dim_rows = 100;
  int view_dims = 1;  // how many dimensions are wrapped in views
  /// How many of the last dimensions are plain stored tables named Dim<i>
  /// (no view); the rest up to `view_dims` are projection views.
  int stored_dims = 0;
  uint64_t seed = 21;
};

std::unique_ptr<Database> MakeStarDatabase(const StarOptions& opts);

/// Join of the fact table with the first `num_dims` dimensions.
std::string StarQuery(int num_dims);

/// Formats a numeric cell for the paper-style tables benches print.
std::string FormatCost(double cost);

}  // namespace magicdb::bench

#endif  // MAGICDB_BENCH_WORKLOADS_WORKLOADS_H_
