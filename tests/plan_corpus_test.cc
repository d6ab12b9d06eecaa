// Golden plan corpus: a fixed set of queries planned under a fixed set of
// optimizer configurations, each checked against the EXPLAIN text (as a
// 64-bit FNV-1a digest), the exact estimated cost and every OptimizerStats
// count recorded in kExpected below. The corpus covers the join-step
// costing paths the DP, the greedy backend, the Starburst-style recost and
// the exhaustive enumerator share: star joins of 2-7 inputs over
// aggregating views, projection views and stored dimensions; the Figure-1
// query, both SIPS variants and the expensive view on both sides of the
// Fig-12 crossover; a table-function inner; a remote-table inner; and a
// two-key join for partial-key filter sets.
//
// Any change to plan choice, binding-id numbering, parametric-cache fill
// order or optimizer effort shows here. A deliberate change regenerates
// the table: a failing case prints its actual line.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/db/database.h"
#include "src/udr/table_function.h"

namespace magicdb {
namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

int64_t Draw(Random* rng, int64_t n) {
  return static_cast<int64_t>(rng->Uniform(static_cast<uint64_t>(n)));
}

/// Figure-1 tables (Emp, Dept, DepAvgSal), the expensive-view tables (XEmp,
/// XDept, Bonus, DepComp), a star Fact(d0..d5, measure) with Dim0/Dim1
/// aggregating views, Dim2/Dim3 projection views and Dim4/Dim5 stored
/// tables, a table function `compute` over Calls, and remote RDept and
/// RBonus.
std::unique_ptr<Database> MakeCorpusDatabase() {
  auto db = std::make_unique<Database>();
  Random rng(16);
  auto load = [&](const std::string& table, std::vector<Tuple> rows) {
    MAGICDB_CHECK_OK(db->LoadRows(table, std::move(rows)));
  };
  for (const std::string prefix : {"", "X"}) {
    MAGICDB_CHECK_OK(db->Execute("CREATE TABLE " + prefix +
                                 "Emp (eid INT, did INT, sal DOUBLE, age INT)"));
    MAGICDB_CHECK_OK(
        db->Execute("CREATE TABLE " + prefix + "Dept (did INT, budget DOUBLE)"));
    const int64_t depts = 400;
    std::vector<Tuple> dept, emp;
    for (int64_t d = 0; d < depts; ++d) {
      dept.push_back({Value::Int64(d),
                      Value::Double(static_cast<double>(Draw(&rng, 1000000)))});
    }
    for (int64_t e = 0; e < (prefix.empty() ? 4000 : 2000); ++e) {
      emp.push_back({Value::Int64(e), Value::Int64(Draw(&rng, depts)),
                     Value::Double(50000.0 + Draw(&rng, 100000)),
                     Value::Int64(20 + Draw(&rng, 40))});
    }
    load(prefix + "Dept", std::move(dept));
    load(prefix + "Emp", std::move(emp));
    (*db->catalog()->Lookup(prefix + "Dept"))->table->CreateHashIndex({0});
    (*db->catalog()->Lookup(prefix + "Emp"))->table->CreateHashIndex({1});
  }
  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Bonus (eid INT, amount DOUBLE)"));
  std::vector<Tuple> bonus;
  for (int64_t e = 0; e < 2000; ++e) {
    for (int b = 0; b < 4; ++b) {
      bonus.push_back({Value::Int64(e),
                       Value::Double(static_cast<double>(Draw(&rng, 5000)))});
    }
  }
  load("Bonus", std::move(bonus));
  MAGICDB_CHECK_OK(db->Execute(
      "CREATE VIEW DepAvgSal AS SELECT did, AVG(sal) AS avgsal FROM Emp "
      "GROUP BY did"));
  MAGICDB_CHECK_OK(db->Execute(
      "CREATE VIEW DepComp AS SELECT E.did, AVG(E.sal + B.amount) AS avgcomp "
      "FROM XEmp E, Bonus B WHERE E.eid = B.eid GROUP BY E.did"));

  MAGICDB_CHECK_OK(db->Execute(
      "CREATE TABLE Fact (d0 INT, d1 INT, d2 INT, d3 INT, d4 INT, d5 INT, "
      "measure DOUBLE)"));
  std::vector<Tuple> fact;
  for (int r = 0; r < 2000; ++r) {
    Tuple t;
    for (int i = 0; i < 6; ++i) t.push_back(Value::Int64(Draw(&rng, 100)));
    t.push_back(Value::Double(static_cast<double>(Draw(&rng, 1000))));
    fact.push_back(std::move(t));
  }
  load("Fact", std::move(fact));
  for (int i = 0; i < 6; ++i) {
    const std::string dim = "Dim" + std::to_string(i);
    const std::string stored = i < 4 ? "DimBase" + std::to_string(i) : dim;
    MAGICDB_CHECK_OK(
        db->Execute("CREATE TABLE " + stored + " (id INT, attr INT)"));
    std::vector<Tuple> rows;
    for (int r = 0; r < 100; ++r) {
      rows.push_back({Value::Int64(r), Value::Int64(Draw(&rng, 10))});
    }
    load(stored, std::move(rows));
    (*db->catalog()->Lookup(stored))->table->CreateHashIndex({0});
    if (i < 2) {
      MAGICDB_CHECK_OK(db->Execute("CREATE VIEW " + dim +
                                   " AS SELECT id, MAX(attr) AS attr FROM " +
                                   stored + " GROUP BY id"));
    } else if (i < 4) {
      MAGICDB_CHECK_OK(db->Execute("CREATE VIEW " + dim +
                                   " AS SELECT id, attr FROM " + stored));
    }
  }

  MAGICDB_CHECK_OK(db->Execute("CREATE TABLE Calls (arg INT, tag INT)"));
  std::vector<Tuple> calls;
  for (int i = 0; i < 3000; ++i) {
    calls.push_back({Value::Int64(Draw(&rng, 400)), Value::Int64(i)});
  }
  load("Calls", std::move(calls));
  MAGICDB_CHECK_OK(db->catalog()->RegisterFunction(
      std::make_unique<LambdaTableFunction>(
          "compute", Schema({{"", "arg", DataType::kInt64}}),
          Schema({{"", "result", DataType::kInt64}}),
          [](const Tuple& in, std::vector<Tuple>* out) {
            out->push_back({Value::Int64(in[0].AsInt64() * 7)});
            return Status::OK();
          })));

  MAGICDB_CHECK_OK(
      db->catalog()
          ->CreateRemoteTable("RDept",
                              Schema({{"", "did", DataType::kInt64},
                                      {"", "budget", DataType::kDouble}}),
                              2)
          .status());
  std::vector<Tuple> rdept;
  for (int64_t d = 0; d < 400; ++d) {
    rdept.push_back({Value::Int64(d),
                     Value::Double(static_cast<double>(Draw(&rng, 1000000)))});
  }
  load("RDept", std::move(rdept));
  MAGICDB_CHECK_OK(
      db->catalog()
          ->CreateRemoteTable("RBonus",
                              Schema({{"", "eid", DataType::kInt64},
                                      {"", "amount", DataType::kDouble}}),
                              3)
          .status());
  std::vector<Tuple> rbonus;
  for (int64_t e = 0; e < 4000; ++e) {
    rbonus.push_back({Value::Int64(e),
                      Value::Double(static_cast<double>(Draw(&rng, 5000)))});
  }
  load("RBonus", std::move(rbonus));
  MAGICDB_CHECK_OK(db->catalog()->AnalyzeAll());
  return db;
}

struct CorpusQuery {
  const char* name;
  std::string sql;
};

std::string Figure1(const std::string& prefix, const std::string& view,
                    const std::string& col, int age, int budget) {
  return "SELECT E.did, E.sal, V." + col + " FROM " + prefix + "Emp E, " +
         prefix + "Dept D, " + view +
         " V WHERE E.did = D.did AND E.did = V.did AND E.sal > V." + col +
         " AND E.age < " + std::to_string(age) + " AND D.budget > " +
         std::to_string(budget);
}

/// Star join of Fact with the given dimensions; dimension i keeps the rows
/// with attr < 2 + i.
std::string Star(const std::vector<int>& dims) {
  std::string from = "Fact F";
  std::string where;
  for (int i : dims) {
    const std::string d = "D" + std::to_string(i);
    from += ", Dim" + std::to_string(i) + " " + d;
    if (!where.empty()) where += " AND ";
    where += "F.d" + std::to_string(i) + " = " + d + ".id AND " + d +
             ".attr < " + std::to_string(2 + i);
  }
  return "SELECT F.measure FROM " + from + " WHERE " + where;
}

std::vector<CorpusQuery> Corpus() {
  return {
      // Figure 1 on both sides of the Fig-12 crossover: ~0.1% and ~100%
      // qualifying, and an asymmetric split between the two predicates.
      {"fig1_selective", Figure1("", "DepAvgSal", "avgsal", 21, 999000)},
      {"fig1_split", Figure1("", "DepAvgSal", "avgsal", 58, 900000)},
      {"fig1_all", Figure1("", "DepAvgSal", "avgsal", 60, 0)},
      {"sips_big_only",
       "SELECT D.did, V.avgsal FROM Dept D, DepAvgSal V WHERE D.did = V.did "
       "AND D.budget > 950000"},
      {"sips_young_only",
       "SELECT E.did, E.sal, V.avgsal FROM Emp E, DepAvgSal V WHERE "
       "E.did = V.did AND E.sal > V.avgsal AND E.age < 22"},
      {"expensive_selective", Figure1("X", "DepComp", "avgcomp", 22, 990000)},
      {"expensive_all", Figure1("X", "DepComp", "avgcomp", 60, 0)},
      {"star2", Star({0})},
      {"star3", Star({2, 4})},
      {"star4", Star({0, 3, 5})},
      {"star5", Star({1, 2, 4, 5})},
      {"star6", Star({0, 1, 2, 3, 4})},
      {"star7", Star({0, 1, 2, 3, 4, 5})},
      // Selective dimensions make Filter Joins into the views pay off.
      {"star6_selective",
       "SELECT F.measure FROM Fact F, Dim4 D4, Dim5 D5, Dim0 D0, Dim1 D1, "
       "Dim2 D2 WHERE F.d4 = D4.id AND F.d5 = D5.id AND F.d0 = D0.id AND "
       "F.d1 = D1.id AND F.d2 = D2.id AND D4.attr < 1 AND D5.attr < 1"},
      {"two_key",
       "SELECT F.measure FROM Fact F, Dim0 D0, Dim2 D2 WHERE F.d0 = D0.id "
       "AND F.d2 = D2.id AND F.d3 = D2.attr AND D0.attr < 4"},
      {"function",
       "SELECT C.tag, F.result FROM Calls C, compute F, Dept D WHERE "
       "C.arg = F.arg AND C.arg = D.did AND D.budget > 500000"},
      {"remote",
       "SELECT E.eid, R.budget FROM Emp E, RDept R, DepAvgSal V WHERE "
       "E.did = R.did AND E.did = V.did AND E.age < 25 AND R.budget > 300000"},
      {"remote_selective",
       "SELECT E.eid, R.amount FROM Emp E, RBonus R WHERE E.eid = R.eid AND "
       "E.age < 21"},
  };
}

struct CorpusConfig {
  const char* name;
  void (*apply)(OptimizerOptions*);
};

const CorpusConfig kConfigs[] = {
    {"cost/dp", [](OptimizerOptions*) {}},
    {"never/dp",
     [](OptimizerOptions* o) {
       o->magic_mode = OptimizerOptions::MagicMode::kNever;
     }},
    {"always/dp",
     [](OptimizerOptions* o) {
       o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
     }},
    {"cost/greedy",
     [](OptimizerOptions* o) { o->join_order_backend = "greedy"; }},
    {"never/greedy",
     [](OptimizerOptions* o) {
       o->join_order_backend = "greedy";
       o->magic_mode = OptimizerOptions::MagicMode::kNever;
     }},
    {"always/greedy",
     [](OptimizerOptions* o) {
       o->join_order_backend = "greedy";
       o->magic_mode = OptimizerOptions::MagicMode::kAlwaysOnVirtual;
     }},
    {"cost/dp/no_orders",
     [](OptimizerOptions* o) { o->interesting_orders = false; }},
    {"cost/dp/prefixes",
     [](OptimizerOptions* o) { o->explore_prefix_production_sets = true; }},
    {"cost/dp/partial_keys",
     [](OptimizerOptions* o) { o->consider_partial_key_filter_sets = true; }},
    {"cost/dp/no_bloom",
     [](OptimizerOptions* o) { o->consider_bloom_filter_sets = false; }},
};

/// One line per (query, config): name, EXPLAIN digest, exact estimated
/// cost, then join_steps_costed, dp_entries, filter_joins_costed,
/// eq_class_hits, eq_class_misses and nested_optimizations.
std::string CaseLine(const std::string& query, const std::string& config,
                     const PlannedSelect& p) {
  const OptimizerStats& s = p.optimizer_stats;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s %s %016" PRIx64 " %a %" PRId64 " %" PRId64 " %" PRId64
                " %" PRId64 " %" PRId64 " %" PRId64,
                query.c_str(), config.c_str(), Fnv1a(p.explain), p.est_cost,
                s.join_steps_costed, s.dp_entries, s.filter_joins_costed,
                s.eq_class_hits, s.eq_class_misses, s.nested_optimizations);
  return buf;
}

/// One line per enumerated query: the digest of every order's costs (exact)
/// and method chains from Optimizer::EnumerateJoinOrders.
std::string EnumerationLine(const std::string& query,
                            const std::vector<JoinOrderCost>& orders) {
  std::ostringstream os;
  for (const JoinOrderCost& o : orders) {
    for (const std::string& a : o.order) os << a << ',';
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%a %a ", o.cost_without_filter_join,
                  o.cost_with_filter_join);
    os << buf << o.methods_without << '|' << o.methods_with << '\n';
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s enumerate %zu %016" PRIx64,
                query.c_str(), orders.size(), Fnv1a(os.str()));
  return buf;
}

// Captured with an optimizer that built a plan for every join step it
// costed; costing steps first and building only the kept ones must
// reproduce every line.
const char kExpected[] = R"(
fig1_selective cost/dp fc0c3ed3120ff2dc 0x1.b333333333333p+2 133 98 34 6 4 1
fig1_selective never/dp fc0c3ed3120ff2dc 0x1.b333333333333p+2 90 59 0 0 0 1
fig1_selective always/dp fc0c3ed3120ff2dc 0x1.b333333333333p+2 105 75 2 0 2 1
fig1_selective cost/greedy a4ba878280b889c8 0x1.b333333333333p+2 91 12 22 4 4 1
fig1_selective never/greedy a4ba878280b889c8 0x1.b333333333333p+2 54 4 0 0 0 1
fig1_selective always/greedy a4ba878280b889c8 0x1.b333333333333p+2 69 13 2 0 2 1
fig1_selective cost/dp/no_orders fc0c3ed3120ff2dc 0x1.b333333333333p+2 91 70 22 2 4 1
fig1_selective cost/dp/prefixes fc0c3ed3120ff2dc 0x1.b333333333333p+2 147 110 46 6 6 1
fig1_selective cost/dp/partial_keys fc0c3ed3120ff2dc 0x1.b333333333333p+2 133 98 34 6 4 1
fig1_selective cost/dp/no_bloom fc0c3ed3120ff2dc 0x1.b333333333333p+2 133 96 17 3 2 1
fig1_split cost/dp 9dffa5e87c41e605 0x1.a1442043da15cp+7 133 99 34 6 4 1
fig1_split never/dp c291ec89f42f56c2 0x1.caf51c891457fp+7 90 59 0 0 0 1
fig1_split always/dp 1617bbf3be8bf371 0x1.a5c3686932682p+7 105 77 2 0 2 1
fig1_split cost/greedy b96f5cc82563d580 0x1.a1442043da15cp+7 91 13 22 2 4 1
fig1_split never/greedy 4a669e149f18e968 0x1.caf51c891457fp+7 54 4 0 0 0 1
fig1_split always/greedy 4a669e149f18e968 0x1.caf51c891457fp+7 56 6 0 0 0 1
fig1_split cost/dp/no_orders 08faa7e912392665 0x1.a1442043da15cp+7 91 71 22 2 4 1
fig1_split cost/dp/prefixes 29216755e7648bc5 0x1.9e86afa0030b8p+7 133 99 44 8 4 1
fig1_split cost/dp/partial_keys 9dffa5e87c41e605 0x1.a1442043da15cp+7 133 99 34 6 4 1
fig1_split cost/dp/no_bloom ccfaa3398fb847fb 0x1.ac7650beb799ap+7 147 107 18 3 2 1
fig1_all cost/dp ce7fb90ef06b198d 0x1.33bbbbbbbbbbbp+8 119 86 32 8 2 1
fig1_all never/dp ce7fb90ef06b198d 0x1.33bbbbbbbbbbbp+8 90 59 0 0 0 1
fig1_all always/dp ce7fb90ef06b198d 0x1.33bbbbbbbbbbbp+8 105 75 2 0 2 1
fig1_all cost/greedy d1831296d45ecf79 0x1.33bbbbbbbbbbbp+8 77 8 20 4 2 1
fig1_all never/greedy d1831296d45ecf79 0x1.33bbbbbbbbbbbp+8 54 4 0 0 0 1
fig1_all always/greedy d1831296d45ecf79 0x1.33bbbbbbbbbbbp+8 69 13 2 0 2 1
fig1_all cost/dp/no_orders ce7fb90ef06b198d 0x1.33bbbbbbbbbbbp+8 77 58 20 4 2 1
fig1_all cost/dp/prefixes ce7fb90ef06b198d 0x1.33bbbbbbbbbbbp+8 119 86 44 12 2 1
fig1_all cost/dp/partial_keys ce7fb90ef06b198d 0x1.33bbbbbbbbbbbp+8 119 86 32 8 2 1
fig1_all cost/dp/no_bloom ce7fb90ef06b198d 0x1.33bbbbbbbbbbbp+8 119 85 16 4 1 1
sips_big_only cost/dp 286b08b323d8cb2e 0x1.9f0ef12b6f7f2p+6 28 25 6 0 2 1
sips_big_only never/dp a2d19d906817ee1c 0x1.eae45a1cac082p+6 12 10 0 0 0 1
sips_big_only always/dp 2fd1ac95f8f8d187 0x1.9f0ef12b6f7f2p+6 26 28 2 0 2 1
sips_big_only cost/greedy 6a45ea454e936916 0x1.9f0ef12b6f7f2p+6 28 8 6 0 2 1
sips_big_only never/greedy 5846f2933098a16c 0x1.eae45a1cac082p+6 12 3 0 0 0 1
sips_big_only always/greedy 701dae760fbc082f 0x1.9f0ef12b6f7f2p+6 26 14 2 0 2 1
sips_big_only cost/dp/no_orders 286b08b323d8cb2e 0x1.9f0ef12b6f7f2p+6 28 25 6 0 2 1
sips_big_only cost/dp/prefixes 286b08b323d8cb2e 0x1.9f0ef12b6f7f2p+6 28 25 6 0 2 1
sips_big_only cost/dp/partial_keys 286b08b323d8cb2e 0x1.9f0ef12b6f7f2p+6 28 25 6 0 2 1
sips_big_only cost/dp/no_bloom f77c1877d40a501b 0x1.b533d178a1376p+6 42 34 4 0 1 1
sips_young_only cost/dp f2896c064e53f585 0x1.9268f5c28f5c3p+7 28 24 6 0 2 1
sips_young_only never/dp f2896c064e53f585 0x1.9268f5c28f5c3p+7 12 10 0 0 0 1
sips_young_only always/dp f2896c064e53f585 0x1.9268f5c28f5c3p+7 26 26 2 0 2 1
sips_young_only cost/greedy 774c0cc33b6c1c3d 0x1.9268f5c28f5c3p+7 28 7 6 0 2 1
sips_young_only never/greedy 774c0cc33b6c1c3d 0x1.9268f5c28f5c3p+7 12 3 0 0 0 1
sips_young_only always/greedy 774c0cc33b6c1c3d 0x1.9268f5c28f5c3p+7 26 12 2 0 2 1
sips_young_only cost/dp/no_orders f2896c064e53f585 0x1.9268f5c28f5c3p+7 28 24 6 0 2 1
sips_young_only cost/dp/prefixes f2896c064e53f585 0x1.9268f5c28f5c3p+7 28 24 6 0 2 1
sips_young_only cost/dp/partial_keys f2896c064e53f585 0x1.9268f5c28f5c3p+7 28 24 6 0 2 1
sips_young_only cost/dp/no_bloom f2896c064e53f585 0x1.9268f5c28f5c3p+7 28 23 3 0 1 1
expensive_selective cost/dp 66092dc60ab3dfc1 0x1.7b0c264d46858p+7 231 158 50 6 4 1
expensive_selective never/dp bb1082cd5cbc48c2 0x1.7ea8c9a156d44p+8 102 66 0 0 0 1
expensive_selective always/dp 06990cd8f8a976df 0x1.7b099a757a14ap+7 170 115 2 0 2 1
expensive_selective cost/greedy 8b87a87b44de4e99 0x1.7b0c264d46858p+7 189 21 38 4 4 1
expensive_selective never/greedy 9bb6ae66ef327cae 0x1.7ea8c9a156d44p+8 66 5 0 0 0 1
expensive_selective always/greedy 9474539d415ca6ab 0x1.7b099a757a14ap+7 134 22 2 0 2 1
expensive_selective cost/dp/no_orders 66092dc60ab3dfc1 0x1.7b0c264d46858p+7 189 130 38 2 4 1
expensive_selective cost/dp/prefixes 66092dc60ab3dfc1 0x1.7b0c264d46858p+7 231 158 60 8 4 1
expensive_selective cost/dp/partial_keys 66092dc60ab3dfc1 0x1.7b0c264d46858p+7 231 158 50 6 4 1
expensive_selective cost/dp/no_bloom 66092dc60ab3dfc1 0x1.7b0c264d46858p+7 203 140 23 3 2 1
expensive_all cost/dp 83ffa7f6cdfc5618 0x1.ccffa89e60f05p+8 161 111 40 8 2 1
expensive_all never/dp 83ffa7f6cdfc5618 0x1.ccffa89e60f05p+8 102 66 0 0 0 1
expensive_all always/dp 83ffa7f6cdfc5618 0x1.ccffa89e60f05p+8 105 68 0 0 0 1
expensive_all cost/greedy 6f110ad2acf21dec 0x1.ccffa89e60f05p+8 119 11 28 6 2 1
expensive_all never/greedy 6f110ad2acf21dec 0x1.ccffa89e60f05p+8 66 5 0 0 0 1
expensive_all always/greedy 6f110ad2acf21dec 0x1.ccffa89e60f05p+8 69 7 0 0 0 1
expensive_all cost/dp/no_orders 83ffa7f6cdfc5618 0x1.ccffa89e60f05p+8 119 83 28 4 2 1
expensive_all cost/dp/prefixes 83ffa7f6cdfc5618 0x1.ccffa89e60f05p+8 161 111 50 12 2 1
expensive_all cost/dp/partial_keys 83ffa7f6cdfc5618 0x1.ccffa89e60f05p+8 161 111 40 8 2 1
expensive_all cost/dp/no_bloom 83ffa7f6cdfc5618 0x1.ccffa89e60f05p+8 147 102 19 4 1 1
star2 cost/dp 7b62051746b1bc05 0x1.1aaaaaaaaaaaap+6 28 23 6 0 2 1
star2 never/dp 7b62051746b1bc05 0x1.1aaaaaaaaaaaap+6 12 9 0 0 0 1
star2 always/dp 7b62051746b1bc05 0x1.1aaaaaaaaaaaap+6 26 25 2 0 2 1
star2 cost/greedy a287bacaa43af325 0x1.1aaaaaaaaaaaap+6 28 7 6 0 2 1
star2 never/greedy a287bacaa43af325 0x1.1aaaaaaaaaaaap+6 12 3 0 0 0 1
star2 always/greedy a287bacaa43af325 0x1.1aaaaaaaaaaaap+6 26 12 2 0 2 1
star2 cost/dp/no_orders 7b62051746b1bc05 0x1.1aaaaaaaaaaaap+6 28 23 6 0 2 1
star2 cost/dp/prefixes 7b62051746b1bc05 0x1.1aaaaaaaaaaaap+6 28 23 6 0 2 1
star2 cost/dp/partial_keys 7b62051746b1bc05 0x1.1aaaaaaaaaaaap+6 28 23 6 0 2 1
star2 cost/dp/no_bloom 7b62051746b1bc05 0x1.1aaaaaaaaaaaap+6 28 22 3 0 1 1
star3 cost/dp 6e7a56011cbfa3fb 0x1.599d0369d0368p+6 105 66 24 6 2 1
star3 never/dp 6e7a56011cbfa3fb 0x1.599d0369d0368p+6 78 43 0 0 0 1
star3 always/dp 6e7a56011cbfa3fb 0x1.599d0369d0368p+6 80 45 0 0 0 1
star3 cost/greedy 385ba442e53e4e9f 0x1.599d0369d0368p+6 77 8 16 2 2 1
star3 never/greedy 385ba442e53e4e9f 0x1.599d0369d0368p+6 54 4 0 0 0 1
star3 always/greedy 385ba442e53e4e9f 0x1.599d0369d0368p+6 56 6 0 0 0 1
star3 cost/dp/no_orders 6e7a56011cbfa3fb 0x1.599d0369d0368p+6 77 48 16 2 2 1
star3 cost/dp/prefixes 6e7a56011cbfa3fb 0x1.599d0369d0368p+6 105 66 30 10 2 1
star3 cost/dp/partial_keys 6e7a56011cbfa3fb 0x1.599d0369d0368p+6 105 66 28 6 2 1
star3 cost/dp/no_bloom 6e7a56011cbfa3fb 0x1.599d0369d0368p+6 105 65 12 3 1 1
star4 cost/dp d0e93e554f9f5b38 0x1.5ce93e93e93e9p+6 413 236 96 48 4 2
star4 never/dp d0e93e554f9f5b38 0x1.5ce93e93e93e9p+6 330 166 0 0 0 2
star4 always/dp d0e93e554f9f5b38 0x1.5ce93e93e93e9p+6 346 183 2 0 2 2
star4 cost/greedy 13afec106ea47204 0x1.5ce93e93e93e9p+6 196 14 40 12 4 2
star4 never/greedy 13afec106ea47204 0x1.5ce93e93e93e9p+6 144 6 0 0 0 2
star4 always/greedy 13afec106ea47204 0x1.5ce93e93e93e9p+6 160 16 2 0 2 2
star4 cost/dp/no_orders d0e93e554f9f5b38 0x1.5ce93e93e93e9p+6 224 119 42 12 4 2
star4 cost/dp/prefixes d0e93e554f9f5b38 0x1.5ce93e93e93e9p+6 413 236 156 90 4 2
star4 cost/dp/partial_keys d0e93e554f9f5b38 0x1.5ce93e93e93e9p+6 413 236 114 48 4 2
star4 cost/dp/no_bloom d0e93e554f9f5b38 0x1.5ce93e93e93e9p+6 413 234 48 24 2 2
star5 cost/dp a9031476bd0981ca 0x1.661e098ead65ap+6 1421 821 346 152 4 2
star5 never/dp a9031476bd0981ca 0x1.661e098ead65ap+6 1194 626 0 0 0 2
star5 always/dp a9031476bd0981ca 0x1.661e098ead65ap+6 1211 643 2 0 2 2
star5 cost/greedy b899921d02ebfc46 0x1.661e098ead65bp+6 378 15 80 30 4 2
star5 never/greedy b899921d02ebfc46 0x1.661e098ead65bp+6 300 7 0 0 0 2
star5 always/greedy b899921d02ebfc46 0x1.661e098ead65bp+6 317 17 2 0 2 2
star5 cost/dp/no_orders a9031476bd0981ca 0x1.661e098ead65ap+6 553 263 98 28 4 2
star5 cost/dp/prefixes a9031476bd0981ca 0x1.661e098ead65ap+6 1421 821 706 340 4 2
star5 cost/dp/partial_keys a9031476bd0981ca 0x1.661e098ead65ap+6 1421 821 402 152 4 2
star5 cost/dp/no_bloom a9031476bd0981ca 0x1.661e098ead65ap+6 1421 819 173 76 2 2
star6 cost/dp dc373c8f7f73973c 0x1.6f72046e6ca09p+6 4753 2630 1200 896 8 4
star6 never/dp dc373c8f7f73973c 0x1.6f72046e6ca09p+6 4026 1986 0 0 0 4
star6 always/dp dc373c8f7f73973c 0x1.6f72046e6ca09p+6 4070 2033 6 0 6 4
star6 cost/greedy b1b8dcb970e5ec2c 0x1.70d159e26af38p+6 686 26 148 96 8 4
star6 never/greedy b1b8dcb970e5ec2c 0x1.70d159e26af38p+6 540 10 0 0 0 4
star6 always/greedy b1b8dcb970e5ec2c 0x1.70d159e26af38p+6 584 36 6 0 6 4
star6 cost/dp/no_orders dc373c8f7f73973c 0x1.6f72046e6ca09p+6 1358 593 230 120 8 4
star6 cost/dp/prefixes dc373c8f7f73973c 0x1.6f72046e6ca09p+6 4753 2630 2828 2204 8 4
star6 cost/dp/partial_keys dc373c8f7f73973c 0x1.6f72046e6ca09p+6 4753 2630 1350 896 8 4
star6 cost/dp/no_bloom dc373c8f7f73973c 0x1.6f72046e6ca09p+6 4753 2626 600 448 4 4
star7 cost/dp 6678caf4127178a9 0x1.7c30255df4dc7p+6 15365 8895 4010 2576 8 4
star7 never/dp 6678caf4127178a9 0x1.7c30255df4dc7p+6 13122 6846 0 0 0 4
star7 always/dp 6678caf4127178a9 0x1.7c30255df4dc7p+6 13167 6893 6 0 6 4
star7 cost/greedy fe8ab7b01afebd04 0x1.7f07f6e5d4c3bp+6 1085 27 242 140 8 4
star7 never/greedy fe8ab7b01afebd04 0x1.7f07f6e5d4c3bp+6 882 11 0 0 0 4
star7 always/greedy fe8ab7b01afebd04 0x1.7f07f6e5d4c3bp+6 927 37 6 0 6 4
star7 cost/dp/no_orders 6678caf4127178a9 0x1.7c30255df4dc7p+6 3143 1329 518 248 8 4
star7 cost/dp/prefixes 6678caf4127178a9 0x1.7c30255df4dc7p+6 15365 8895 11022 7272 8 4
star7 cost/dp/partial_keys 6678caf4127178a9 0x1.7c30255df4dc7p+6 15365 8895 4382 2576 8 4
star7 cost/dp/no_bloom 6678caf4127178a9 0x1.7c30255df4dc7p+6 15365 8891 2005 1288 4 4
star6_selective cost/dp cfc188b620b807cb 0x1.506cbfb15b573p+6 4739 2730 1198 672 6 3
star6_selective never/dp cfc188b620b807cb 0x1.506cbfb15b573p+6 4026 2098 0 0 0 3
star6_selective always/dp cfc188b620b807cb 0x1.506cbfb15b573p+6 4070 2144 6 0 6 3
star6_selective cost/greedy 3228085b3115383d 0x1.506cbfb15b574p+6 672 21 134 84 6 3
star6_selective never/greedy 3228085b3115383d 0x1.506cbfb15b574p+6 540 9 0 0 0 3
star6_selective always/greedy 3228085b3115383d 0x1.506cbfb15b574p+6 584 34 6 0 6 3
star6_selective cost/dp/no_orders cfc188b620b807cb 0x1.506cbfb15b573p+6 1344 596 228 90 6 3
star6_selective cost/dp/prefixes cfc188b620b807cb 0x1.506cbfb15b573p+6 4739 2730 3078 1800 6 3
star6_selective cost/dp/partial_keys cfc188b620b807cb 0x1.506cbfb15b573p+6 4739 2730 1348 672 6 3
star6_selective cost/dp/no_bloom cfc188b620b807cb 0x1.506cbfb15b573p+6 4739 2727 599 336 3 3
two_key cost/dp 340558d6a58e46cf 0x1.0a36d1f8c274ep+6 119 74 26 12 4 2
two_key never/dp 340558d6a58e46cf 0x1.0a36d1f8c274ep+6 78 40 0 0 0 2
two_key always/dp 340558d6a58e46cf 0x1.0a36d1f8c274ep+6 106 70 4 0 4 2
two_key cost/greedy bba3dc7d3849e5f3 0x1.0a36d1f8c274ep+6 91 13 18 6 4 2
two_key never/greedy bba3dc7d3849e5f3 0x1.0a36d1f8c274ep+6 54 5 0 0 0 2
two_key always/greedy bba3dc7d3849e5f3 0x1.0a36d1f8c274ep+6 82 22 4 0 4 2
two_key cost/dp/no_orders 340558d6a58e46cf 0x1.0a36d1f8c274ep+6 91 58 18 4 4 2
two_key cost/dp/prefixes 340558d6a58e46cf 0x1.0a36d1f8c274ep+6 119 74 34 20 4 2
two_key cost/dp/partial_keys 340558d6a58e46cf 0x1.0a36d1f8c274ep+6 147 97 60 24 8 2
two_key cost/dp/no_bloom 340558d6a58e46cf 0x1.0a36d1f8c274ep+6 119 72 13 6 2 2
function cost/dp 94e09dd1507b7825 0x1.67d77abc5f135p+9 63 35 13 0 0 0
function never/dp 94e09dd1507b7825 0x1.67d77abc5f135p+9 54 26 0 0 0 0
function always/dp c68bada2264c512c 0x1.5767da2ca72eap+9 56 27 1 0 0 0
function cost/greedy 047310c45d9cd7b0 0x1.02882fde92522p+11 42 2 8 0 0 0
function never/greedy 047310c45d9cd7b0 0x1.02882fde92522p+11 36 2 0 0 0 0
function always/greedy 047310c45d9cd7b0 0x1.02882fde92522p+11 38 3 1 0 0 0
function cost/dp/no_orders 94e09dd1507b7825 0x1.67d77abc5f135p+9 49 29 11 0 0 0
function cost/dp/prefixes 94e09dd1507b7825 0x1.67d77abc5f135p+9 63 35 17 0 0 0
function cost/dp/partial_keys 94e09dd1507b7825 0x1.67d77abc5f135p+9 63 35 13 0 0 0
function cost/dp/no_bloom 94e09dd1507b7825 0x1.67d77abc5f135p+9 63 35 9 0 0 0
remote cost/dp 73e42b3b28da96f9 0x1.d40b4df8dc79ap+7 119 81 32 8 2 1
remote never/dp 73e42b3b28da96f9 0x1.d40b4df8dc79ap+7 90 54 0 0 0 1
remote always/dp 73e42b3b28da96f9 0x1.d40b4df8dc79ap+7 105 70 2 0 2 1
remote cost/greedy 628bd41ea87d6f17 0x1.d40b4df8dc79ap+7 77 8 20 6 2 1
remote never/greedy 628bd41ea87d6f17 0x1.d40b4df8dc79ap+7 54 4 0 0 0 1
remote always/greedy 628bd41ea87d6f17 0x1.d40b4df8dc79ap+7 56 6 2 0 0 1
remote cost/dp/no_orders 73e42b3b28da96f9 0x1.d40b4df8dc79ap+7 77 55 20 4 2 1
remote cost/dp/prefixes 73e42b3b28da96f9 0x1.d40b4df8dc79ap+7 119 81 42 10 2 1
remote cost/dp/partial_keys 73e42b3b28da96f9 0x1.d40b4df8dc79ap+7 119 81 32 8 2 1
remote cost/dp/no_bloom 73e42b3b28da96f9 0x1.d40b4df8dc79ap+7 119 80 16 4 1 1
remote_selective cost/dp b6292c1a6086cdd1 0x1.5a04a579bafebp+7 14 10 4 0 0 0
remote_selective never/dp 99c75fcc9c0f776c 0x1.a0d604189374bp+7 12 8 0 0 0 0
remote_selective always/dp b6292c1a6086cdd1 0x1.5a04a579bafebp+7 13 9 2 0 0 0
remote_selective cost/greedy aaebe7fea3dfff2d 0x1.5a04a579bafebp+7 14 2 4 0 0 0
remote_selective never/greedy bf693cb473dc382c 0x1.a0d604189374bp+7 12 2 0 0 0 0
remote_selective always/greedy aaebe7fea3dfff2d 0x1.5a04a579bafebp+7 13 3 2 0 0 0
remote_selective cost/dp/no_orders b6292c1a6086cdd1 0x1.5a04a579bafebp+7 14 10 4 0 0 0
remote_selective cost/dp/prefixes b6292c1a6086cdd1 0x1.5a04a579bafebp+7 14 10 4 0 0 0
remote_selective cost/dp/partial_keys b6292c1a6086cdd1 0x1.5a04a579bafebp+7 14 10 4 0 0 0
remote_selective cost/dp/no_bloom b6292c1a6086cdd1 0x1.5a04a579bafebp+7 14 10 2 0 0 0
fig1_split enumerate 6 f221b9187f602699
star4 enumerate 24 2b8b5b9186be13d5
function enumerate 4 cf98bb7b24a30c97
)";

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

TEST(PlanCorpusTest, ExplainAndEffortMatchGolden) {
  auto db = MakeCorpusDatabase();
  std::vector<std::string> actual;
  std::vector<std::string> explains;
  for (const CorpusQuery& q : Corpus()) {
    for (const CorpusConfig& c : kConfigs) {
      OptimizerOptions opts;
      c.apply(&opts);
      auto planned = db->PlanSelect(q.sql, opts);
      ASSERT_TRUE(planned.ok())
          << q.name << " " << c.name << ": " << planned.status().ToString();
      actual.push_back(CaseLine(q.name, c.name, *planned));
      explains.push_back(planned->explain);
    }
  }
  for (const char* name : {"fig1_split", "star4", "function"}) {
    for (const CorpusQuery& q : Corpus()) {
      if (q.name != std::string(name)) continue;
      auto bound = db->Bind(q.sql);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      Optimizer opt(db->catalog());
      auto orders = opt.EnumerateJoinOrders(*bound);
      ASSERT_TRUE(orders.ok()) << orders.status().ToString();
      actual.push_back(EnumerationLine(q.name, *orders));
      explains.push_back("");
    }
  }

  const std::vector<std::string> expected = Lines(kExpected);
  EXPECT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    if (i < expected.size() && actual[i] == expected[i]) continue;
    ADD_FAILURE() << "plan corpus case " << i << "\n  expected: "
                  << (i < expected.size() ? expected[i] : "(none)")
                  << "\n  actual:   " << actual[i] << "\n"
                  << explains[i];
  }
}

TEST(PlanCorpusTest, PlanningIsDeterministic) {
  // The golden table is only meaningful if planning one query twice gives
  // the same text and effort: no pointer-order or iteration-order leaks.
  auto db = MakeCorpusDatabase();
  for (const CorpusQuery& q : Corpus()) {
    OptimizerOptions opts;
    opts.consider_partial_key_filter_sets = true;
    auto a = db->PlanSelect(q.sql, opts);
    auto b = db->PlanSelect(q.sql, opts);
    ASSERT_TRUE(a.ok() && b.ok()) << q.name;
    EXPECT_EQ(CaseLine(q.name, "x", *a), CaseLine(q.name, "x", *b));
    EXPECT_EQ(a->explain, b->explain) << q.name;
  }
}

}  // namespace
}  // namespace magicdb
