//===- sim/FlatTable.h - Open-addressed table for the simulator -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressed hash table from a 64-bit key to a small trivially
/// copyable value, stored inline in one flat array of slots: linear probing,
/// Fibonacci hashing, power-of-two capacity, and a 7/8 maximum load factor.
/// It backs the simulator's per-access lookups (the coherence line directory
/// and the first-touch page homes), where a node-based map costs an
/// allocation per key and a pointer chase per lookup. Entries are never
/// erased individually; clear() drops them all.
///
/// The all-ones key marks an empty slot. Callers key by line or page index
/// (an address shifted right by at least three bits), which never takes
/// that value.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SIM_FLATTABLE_H
#define CHEETAH_SIM_FLATTABLE_H

#include "support/Assert.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cheetah {
namespace sim {

template <typename Value> class FlatTable {
public:
  struct Slot {
    uint64_t Key;
    Value Val;
  };

  static constexpr uint64_t EmptyKey = ~uint64_t(0);

  /// \p InitialCapacity must be a power of two, at least 8.
  explicit FlatTable(size_t InitialCapacity = 1024)
      : InitialCapacity(InitialCapacity) {
    CHEETAH_ASSERT(InitialCapacity >= 8 &&
                       (InitialCapacity & (InitialCapacity - 1)) == 0,
                   "flat table capacity must be a power of two >= 8");
    allocate(InitialCapacity);
  }

  /// \returns the value stored under \p Key, inserting a value-initialized
  /// one first if absent; \p Inserted tells which happened.
  Value &findOrInsert(uint64_t Key, bool &Inserted) {
    CHEETAH_ASSERT(Key != EmptyKey, "flat table key collides with marker");
    for (size_t I = home(Key);; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Key == Key) {
        Inserted = false;
        return S.Val;
      }
      if (S.Key == EmptyKey) {
        Inserted = true;
        if (Size == MaxSize) {
          grow();
          return place(Key);
        }
        ++Size;
        S.Key = Key;
        S.Val = Value();
        return S.Val;
      }
    }
  }

  /// \returns the value stored under \p Key, or null.
  const Value *find(uint64_t Key) const {
    for (size_t I = home(Key);; I = (I + 1) & Mask) {
      const Slot &S = Slots[I];
      if (S.Key == Key)
        return &S.Val;
      if (S.Key == EmptyKey)
        return nullptr;
    }
  }

  size_t size() const { return Size; }

  /// Drops every entry and returns to the initial capacity.
  void clear() { allocate(InitialCapacity); }

private:
  void allocate(size_t Capacity) {
    Slots.assign(Capacity, Slot{EmptyKey, Value()});
    Mask = Capacity - 1;
    MaxSize = Capacity / 8 * 7;
    Shift = 64;
    for (size_t C = Capacity; C > 1; C >>= 1)
      --Shift;
    Size = 0;
  }

  size_t home(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9e3779b97f4a7c15ull) >> Shift);
  }

  /// Inserts \p Key, known to be absent, with a value-initialized value.
  Value &place(uint64_t Key) {
    size_t I = home(Key);
    while (Slots[I].Key != EmptyKey)
      I = (I + 1) & Mask;
    ++Size;
    Slots[I] = Slot{Key, Value()};
    return Slots[I].Val;
  }

  void grow() {
    std::vector<Slot> Old;
    Old.swap(Slots);
    allocate(Old.size() * 2);
    for (const Slot &S : Old)
      if (S.Key != EmptyKey)
        place(S.Key) = S.Val;
  }

  std::vector<Slot> Slots;
  size_t InitialCapacity;
  size_t Mask = 0;
  size_t MaxSize = 0;
  size_t Size = 0;
  unsigned Shift = 64;
};

} // namespace sim
} // namespace cheetah

#endif // CHEETAH_SIM_FLATTABLE_H
