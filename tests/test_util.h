#ifndef MAGICDB_TESTS_TEST_UTIL_H_
#define MAGICDB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/cost_counters.h"
#include "src/types/tuple.h"

namespace magicdb::testutil {

/// Sorts a result multiset into canonical order for order-insensitive
/// comparison.
inline std::vector<Tuple> Canonicalize(std::vector<Tuple> rows) {
  std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
    return CompareTuples(a, b) < 0;
  });
  return rows;
}

/// True iff `a` and `b` contain the same tuples with the same
/// multiplicities.
inline bool SameMultiset(std::vector<Tuple> a, std::vector<Tuple> b) {
  a = Canonicalize(std::move(a));
  b = Canonicalize(std::move(b));
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (CompareTuples(a[i], b[i]) != 0) return false;
  }
  return true;
}

/// Expects every CostCounters field of `a` and `b` to be equal: the exact
/// cost-identity check between two executions of the same query.
inline void ExpectCountersEqual(const CostCounters& a, const CostCounters& b) {
  EXPECT_EQ(a.pages_read, b.pages_read);
  EXPECT_EQ(a.pages_written, b.pages_written);
  EXPECT_EQ(a.tuples_processed, b.tuples_processed);
  EXPECT_EQ(a.exprs_evaluated, b.exprs_evaluated);
  EXPECT_EQ(a.hash_operations, b.hash_operations);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_shipped, b.bytes_shipped);
  EXPECT_EQ(a.function_invocations, b.function_invocations);
  EXPECT_EQ(a.spill_bytes_written, b.spill_bytes_written);
  EXPECT_EQ(a.spill_bytes_read, b.spill_bytes_read);
}

}  // namespace magicdb::testutil

#endif  // MAGICDB_TESTS_TEST_UTIL_H_
