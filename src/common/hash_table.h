#ifndef MAGICDB_COMMON_HASH_TABLE_H_
#define MAGICDB_COMMON_HASH_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/logging.h"

namespace magicdb {

/// The one hash table behind every piece of hashed execution state (join
/// builds, group tables, distinct sets, memo caches, hash indexes).
///
/// It indexes entries the caller keeps in a plain vector, in insertion
/// order: Insert(hash) assigns the next entry id (0, 1, 2, ...), and the
/// caller appends the entry's payload at that index. Two parts:
///   - an open-addressed directory keyed by the full 64-bit hash, each slot
///     holding the first and last entry id of that hash's chain;
///   - one `next` id per entry, linking the chain in insertion order.
///
/// A lookup yields exactly the entries inserted with that 64-bit hash, in
/// arrival order. Callers still compare keys themselves (distinct keys may
/// share a hash), and first-seen orders that byte-identity depends on are
/// preserved. There is no per-key or per-entry allocation; the directory
/// doubles on growth without touching the caller's payload.
class HashTable {
 public:
  using EntryId = uint32_t;
  static constexpr EntryId kNoEntry = std::numeric_limits<EntryId>::max();

  /// Appends entry size() to the end of `hash`'s chain and returns its id.
  EntryId Insert(uint64_t hash) {
    MAGICDB_CHECK(next_.size() < kNoEntry);
    const EntryId id = static_cast<EntryId>(next_.size());
    if (2 * (used_slots_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[SlotFor(hash)];
    if (slot.first == kNoEntry) {
      slot.hash = hash;
      slot.first = id;
      ++used_slots_;
    } else {
      next_[slot.last] = id;
    }
    slot.last = id;
    next_.push_back(kNoEntry);
    return id;
  }

  /// First entry of `hash`'s chain, or kNoEntry.
  EntryId Find(uint64_t hash) const {
    return slots_.empty() ? kNoEntry : slots_[SlotFor(hash)].first;
  }

  /// The entry after `id` in its chain, or kNoEntry.
  EntryId Next(EntryId id) const { return next_[id]; }

  size_t size() const { return next_.size(); }

  /// Drops every entry and releases the storage.
  void Clear();

  /// Heap bytes the directory and links hold. Never charged to a query's
  /// memory tracker, which counts logical row and group bytes.
  size_t StorageBytes() const {
    return slots_.capacity() * sizeof(Slot) +
           next_.capacity() * sizeof(EntryId);
  }

  /// The entry ids of one hash's chain, in insertion order:
  ///   for (HashTable::EntryId id : table.Chain(hash)) ...
  class ChainRange {
   public:
    class Iterator {
     public:
      Iterator(const HashTable* table, EntryId id) : table_(table), id_(id) {}
      EntryId operator*() const { return id_; }
      Iterator& operator++() {
        id_ = table_->Next(id_);
        return *this;
      }
      bool operator!=(const Iterator& other) const { return id_ != other.id_; }

     private:
      const HashTable* table_;
      EntryId id_;
    };
    ChainRange(const HashTable* table, EntryId first)
        : table_(table), first_(first) {}
    Iterator begin() const { return Iterator(table_, first_); }
    Iterator end() const { return Iterator(table_, kNoEntry); }

   private:
    const HashTable* table_;
    EntryId first_;
  };
  ChainRange Chain(uint64_t hash) const { return ChainRange(this, Find(hash)); }

 private:
  struct Slot {
    uint64_t hash = 0;
    EntryId first = kNoEntry;  // kNoEntry marks an empty slot
    EntryId last = kNoEntry;
  };

  static constexpr int kMinSlotsLog2 = 4;

  /// Slot holding `hash`, or the empty slot where it would go (linear
  /// probing from the hash's Fibonacci-mixed top bits; the directory is at
  /// most half full, so an empty slot always ends the scan).
  size_t SlotFor(uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (slots_[i].first != kNoEntry && slots_[i].hash != hash) {
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Doubles the directory (or creates it) and re-seats every chain head;
  /// the `next` links and the caller's payload do not move.
  void Grow();

  std::vector<Slot> slots_;  // power-of-two size, or empty
  std::vector<EntryId> next_;
  size_t used_slots_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

/// A resumable cursor over one hash's chain, resolving entry ids against
/// the caller's payload vector. Both must outlive the cursor and must not
/// change while it is in use.
template <typename T>
class HashChain {
 public:
  HashChain() = default;
  HashChain(const HashTable& table, const std::vector<T>& entries,
            uint64_t hash)
      : table_(&table), entries_(&entries), id_(table.Find(hash)) {}

  bool done() const { return id_ == HashTable::kNoEntry; }
  const T& operator*() const { return (*entries_)[id_]; }
  void Advance() { id_ = table_->Next(id_); }

 private:
  const HashTable* table_ = nullptr;
  const std::vector<T>* entries_ = nullptr;
  HashTable::EntryId id_ = HashTable::kNoEntry;
};

}  // namespace magicdb

#endif  // MAGICDB_COMMON_HASH_TABLE_H_
