// E7 (§3): adding the Filter Join under Limitations 1-3 must not change
// the asymptotic complexity of join optimization. This bench sweeps the
// number of join inputs and reports optimizer effort (DP entries, join
// steps costed, planning time) for a classic System R, the paper's
// proposal, and the Limitation-2 ablation (prefix production sets), whose
// extra O(N) factor becomes visible in the step counts. Planning times are
// min/median/max over kRepetitions fresh optimizers; the effort counts are
// exact and must not vary between repetitions. Two row sets: stars whose
// every dimension is an aggregating view, and stars over the dimension mix
// of magicbench's views_adhoc workload (2 aggregating views, 2 projection
// views, 2 stored tables).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "src/common/logging.h"
#include "src/optimizer/optimizer.h"
#include "workloads/table_printer.h"
#include "workloads/workloads.h"

namespace magicdb::bench {
namespace {

constexpr int kRepetitions = 15;

struct Effort {
  int64_t steps = 0;
  int64_t dp_entries = 0;
  int64_t filter_joins = 0;
  /// Planning wall-clock over the repetitions, microseconds.
  double min_us = 0;
  double median_us = 0;
  double max_us = 0;

  std::string Times() const {
    return std::to_string(static_cast<int64_t>(min_us)) + "/" +
           std::to_string(static_cast<int64_t>(median_us)) + "/" +
           std::to_string(static_cast<int64_t>(max_us));
  }
};

Effort MeasurePlanning(Database* db, const std::string& query,
                       const OptimizerOptions& opts) {
  auto logical = db->Bind(query);
  MAGICDB_CHECK_OK(logical.status());
  Effort effort;
  std::vector<double> micros;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Optimizer optimizer(db->catalog(), opts);
    const auto start = std::chrono::steady_clock::now();
    auto plan = optimizer.Optimize(*logical);
    micros.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    MAGICDB_CHECK_OK(plan.status());
    const OptimizerStats& stats = optimizer.stats();
    if (rep == 0) {
      effort.steps = stats.join_steps_costed;
      effort.dp_entries = stats.dp_entries;
      effort.filter_joins = stats.filter_joins_costed;
    }
    MAGICDB_CHECK(stats.join_steps_costed == effort.steps &&
                  stats.dp_entries == effort.dp_entries &&
                  stats.filter_joins_costed == effort.filter_joins);
  }
  std::sort(micros.begin(), micros.end());
  effort.min_us = micros.front();
  effort.median_us = micros[micros.size() / 2];
  effort.max_us = micros.back();
  return effort;
}

void AddRow(TablePrinter* table, const std::string& label, Database* db,
            const std::string& query) {
  OptimizerOptions no_fj;
  no_fj.magic_mode = OptimizerOptions::MagicMode::kNever;
  const Effort a = MeasurePlanning(db, query, no_fj);

  OptimizerOptions with_fj;  // paper defaults: Limitations 1-3 applied
  const Effort b = MeasurePlanning(db, query, with_fj);

  OptimizerOptions prefixes = with_fj;
  prefixes.explore_prefix_production_sets = true;
  const Effort c = MeasurePlanning(db, query, prefixes);

  table->AddRow({label, std::to_string(a.steps), a.Times(),
                 std::to_string(b.steps), b.Times(), std::to_string(c.steps),
                 c.Times(),
                 FormatCost(static_cast<double>(c.filter_joins) /
                            std::max<int64_t>(1, b.filter_joins))});
}

void PrintComplexityTable() {
  std::cout << "=== E7 / Section 3: optimization effort vs number of join "
               "inputs ===\n"
            << "star join of Fact with N-1 dimensions; steps = (subset, "
               "inner, method) combinations costed; us = planning time "
               "min/median/max over "
            << kRepetitions << " runs\n\n";
  TablePrinter table({"N inputs", "no FJ: steps", "no FJ: us",
                      "FJ+Limits: steps", "FJ+Limits: us",
                      "FJ+prefixes: steps", "FJ+prefixes: us",
                      "prefix/limit step ratio"});
  // Every dimension an aggregating view.
  for (int dims : {2, 3, 4, 5, 6, 7}) {
    StarOptions sopts;
    sopts.num_dims = dims;
    sopts.fact_rows = 500;
    sopts.dim_rows = 50;
    sopts.view_dims = dims;  // every dimension is a virtual relation
    auto db = MakeStarDatabase(sopts);
    AddRow(&table, std::to_string(dims + 1), db.get(), StarQuery(dims));
  }
  // The views_adhoc dimension mix, joined one dimension at a time: Dim0-1
  // aggregating views, Dim2-3 projection views, Dim4-5 stored tables.
  StarOptions mix;
  mix.num_dims = 6;
  mix.fact_rows = 500;
  mix.dim_rows = 50;
  mix.view_dims = 2;
  mix.stored_dims = 2;
  auto mix_db = MakeStarDatabase(mix);
  for (int dims : {2, 3, 4, 5, 6}) {
    AddRow(&table, std::to_string(dims + 1) + " (mix)", mix_db.get(),
           StarQuery(dims));
  }
  table.Print();
  std::cout << "\n(the last column is the Filter-Join costings ratio: the "
               "prefix ablation grows with chain length, the paper's "
               "limited search does not)\n\n";
}

void BM_OptimizeStar(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  StarOptions sopts;
  sopts.num_dims = dims;
  sopts.fact_rows = 500;
  sopts.dim_rows = 50;
  sopts.view_dims = dims;
  auto db = MakeStarDatabase(sopts);
  const std::string query = StarQuery(dims);
  auto logical = db->Bind(query);
  MAGICDB_CHECK_OK(logical.status());
  for (auto _ : state) {
    Optimizer optimizer(db->catalog());
    auto plan = optimizer.Optimize(*logical);
    MAGICDB_CHECK_OK(plan.status());
    benchmark::DoNotOptimize(plan->est_cost);
  }
}
BENCHMARK(BM_OptimizeStar)->Arg(3)->Arg(5)->Arg(7);

}  // namespace
}  // namespace magicdb::bench

int main(int argc, char** argv) {
  magicdb::bench::PrintComplexityTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
