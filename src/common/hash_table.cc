#include "src/common/hash_table.h"

namespace magicdb {

void HashTable::Grow() {
  std::vector<Slot> old;
  old.swap(slots_);
  const size_t size = old.empty() ? size_t{1} << kMinSlotsLog2 : 2 * old.size();
  shift_ = old.empty() ? 64 - kMinSlotsLog2 : shift_ - 1;
  slots_.resize(size);
  for (const Slot& slot : old) {
    if (slot.first != kNoEntry) slots_[SlotFor(slot.hash)] = slot;
  }
}

void HashTable::Clear() {
  std::vector<Slot>().swap(slots_);
  std::vector<EntryId>().swap(next_);
  used_slots_ = 0;
  shift_ = 64;
}

}  // namespace magicdb
