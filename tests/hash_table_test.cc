#include "src/common/hash_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace magicdb {
namespace {

// Entry ids of `hash`'s chain, in chain order.
std::vector<HashTable::EntryId> ChainIds(const HashTable& table,
                                         uint64_t hash) {
  std::vector<HashTable::EntryId> ids;
  for (HashTable::EntryId id : table.Chain(hash)) ids.push_back(id);
  return ids;
}

TEST(HashTableTest, EmptyTableFindsNothing) {
  HashTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(0), HashTable::kNoEntry);
  EXPECT_EQ(table.Find(0xdeadbeefULL), HashTable::kNoEntry);
  EXPECT_TRUE(ChainIds(table, 42).empty());
  std::vector<std::string> payload;
  HashChain<std::string> chain(table, payload, 42);
  EXPECT_TRUE(chain.done());
  EXPECT_TRUE(HashChain<std::string>().done());
}

TEST(HashTableTest, IdsFollowInsertionOrder) {
  HashTable table;
  EXPECT_EQ(table.Insert(7), 0u);
  EXPECT_EQ(table.Insert(9), 1u);
  EXPECT_EQ(table.Insert(7), 2u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(ChainIds(table, 7), (std::vector<HashTable::EntryId>{0, 2}));
  EXPECT_EQ(ChainIds(table, 9), (std::vector<HashTable::EntryId>{1}));
  EXPECT_TRUE(ChainIds(table, 8).empty());
}

TEST(HashTableTest, DistinctKeysSharingOneHashComeBackInInsertionOrder) {
  // Callers pass the hash in, so a full 64-bit collision between different
  // keys is just two inserts with the same hash; the caller's key compare
  // tells them apart.
  HashTable table;
  std::vector<std::string> keys;
  const uint64_t kShared = 0x0123456789abcdefULL;
  for (const char* key : {"alpha", "beta", "gamma", "beta"}) {
    table.Insert(kShared);
    keys.push_back(key);
  }
  table.Insert(kShared + 1);
  keys.push_back("delta");

  std::vector<std::string> seen;
  for (HashChain<std::string> c(table, keys, kShared); !c.done(); c.Advance()) {
    seen.push_back(*c);
  }
  EXPECT_EQ(seen,
            (std::vector<std::string>{"alpha", "beta", "gamma", "beta"}));
  // A lookup for one key still walks the whole chain; the first matching
  // entry is the first-inserted one.
  HashTable::EntryId first_beta = HashTable::kNoEntry;
  for (HashTable::EntryId id : table.Chain(kShared)) {
    if (keys[id] == "beta") {
      first_beta = id;
      break;
    }
  }
  EXPECT_EQ(first_beta, 1u);
  EXPECT_EQ(ChainIds(table, kShared + 1),
            (std::vector<HashTable::EntryId>{4}));
}

TEST(HashTableTest, GrowthKeepsEveryChainWholeAndOrdered) {
  // Many distinct hashes force repeated directory doubling; every hash also
  // gets a chain whose entries are spread across the growth steps. Hashes
  // that differ only in their low bits stress the slot mixing.
  HashTable table;
  const uint64_t kHashes = 5000;
  const int kRounds = 3;
  std::vector<uint64_t> hash_of;
  for (int round = 0; round < kRounds; ++round) {
    for (uint64_t h = 0; h < kHashes; ++h) {
      const uint64_t hash = h << 2;  // all share the low two bits
      EXPECT_EQ(table.Insert(hash), hash_of.size());
      hash_of.push_back(hash);
    }
  }
  ASSERT_EQ(table.size(), kHashes * kRounds);
  for (uint64_t h = 0; h < kHashes; ++h) {
    const std::vector<HashTable::EntryId> ids = ChainIds(table, h << 2);
    ASSERT_EQ(ids.size(), static_cast<size_t>(kRounds)) << h;
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(ids[round], round * kHashes + h);
    }
  }
  // Hashes never inserted are absent, including ones that land on the
  // same home slots.
  for (uint64_t h = 0; h < 1000; ++h) {
    EXPECT_EQ(table.Find((h << 2) | 1), HashTable::kNoEntry);
  }
}

TEST(HashTableTest, InterleavedInsertAndLookupAsInAggregation) {
  // Group-by over a stream: probe the key's chain, insert a new group only
  // when no entry's key matches. Keys collide in pairs on the hash.
  HashTable index;
  std::vector<int> group_keys;
  std::vector<int> group_counts;
  const auto hash_of = [](int key) { return static_cast<uint64_t>(key / 2); };
  const std::vector<int> input = {4, 5, 4, 9, 5, 8, 9, 9, 4, 1};
  for (int key : input) {
    HashTable::EntryId group = HashTable::kNoEntry;
    for (HashTable::EntryId id : index.Chain(hash_of(key))) {
      if (group_keys[id] == key) {
        group = id;
        break;
      }
    }
    if (group == HashTable::kNoEntry) {
      group = index.Insert(hash_of(key));
      ASSERT_EQ(group, group_keys.size());
      group_keys.push_back(key);
      group_counts.push_back(0);
    }
    ++group_counts[group];
  }
  EXPECT_EQ(group_keys, (std::vector<int>{4, 5, 9, 8, 1}));
  EXPECT_EQ(group_counts, (std::vector<int>{3, 2, 3, 1, 1}));
  // 4 and 5 share hash 2, 8 and 9 share hash 4: both chains in first-seen
  // order.
  EXPECT_EQ(ChainIds(index, 2), (std::vector<HashTable::EntryId>{0, 1}));
  EXPECT_EQ(ChainIds(index, 4), (std::vector<HashTable::EntryId>{2, 3}));
}

TEST(HashTableTest, IterationOverAllEntriesIsInsertionOrder) {
  // The Grace spill dump walks the payload vector by entry id: that is
  // arrival order overall, and therefore arrival order within every hash.
  HashTable table;
  std::vector<uint64_t> payload_hash;
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t hash = (i * 37) % 11;
    table.Insert(hash);
    payload_hash.push_back(hash);
  }
  std::vector<std::vector<HashTable::EntryId>> per_hash(11);
  for (HashTable::EntryId id = 0; id < table.size(); ++id) {
    per_hash[payload_hash[id]].push_back(id);
  }
  for (uint64_t hash = 0; hash < 11; ++hash) {
    EXPECT_EQ(ChainIds(table, hash), per_hash[hash]) << hash;
  }
}

TEST(HashTableTest, ClearReleasesStorageAndTableIsReusable) {
  HashTable table;
  EXPECT_EQ(table.StorageBytes(), 0u);
  for (uint64_t i = 0; i < 10000; ++i) table.Insert(i);
  EXPECT_GE(table.StorageBytes(), 10000 * sizeof(HashTable::EntryId));
  table.Clear();
  EXPECT_EQ(table.StorageBytes(), 0u);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(5), HashTable::kNoEntry);
  // Reuse: ids restart at 0 and chains rebuild from scratch.
  EXPECT_EQ(table.Insert(5), 0u);
  EXPECT_EQ(table.Insert(6), 1u);
  EXPECT_EQ(table.Insert(5), 2u);
  EXPECT_EQ(ChainIds(table, 5), (std::vector<HashTable::EntryId>{0, 2}));
  EXPECT_EQ(table.Find(9999), HashTable::kNoEntry);
  // Clearing an already-empty table is fine too.
  HashTable empty;
  empty.Clear();
  EXPECT_EQ(empty.Find(1), HashTable::kNoEntry);
}

}  // namespace
}  // namespace magicdb
