// Open-addressed u64-keyed flat map — the sparse_dist_map recipe
// (proto/sparse_exploration.hpp) generalized over the mapped type, for
// protocol state that used to live in per-node std::unordered_map:
// insertion-ordered entries in one dense vector (pointer-stable only until
// the next mutation, like unordered_map iterators), a power-of-two linear
// probe table holding entry indices, and tombstone deletion with
// swap-remove so neither lookups nor erasure ever chase list nodes or
// touch the allocator per element. Token routing's exact path keeps
// hundreds of thousands of tiny per-node maps (store / pending / task_of /
// want_of, src/proto/token_routing.cpp); node-hashed buckets there made
// every find a cache miss into a separately heap-allocated node.
//
// Determinism: callers must not depend on iteration order across
// implementations — token routing only ever does point lookups — but the
// structure itself is fully deterministic: layout is a pure function of
// the operation sequence, never of pointer values or a seeded hash.
#pragma once

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "util/bits.hpp"

namespace hybrid {

/// Maps u64 keys to V. V must be movable; erase() swap-removes, so V moves
/// must not invalidate the mapped state (vectors, scalars are fine).
template <class V>
class flat_u64_map {
 public:
  struct entry {
    u64 key;
    V value;
  };

  /// The mapped value, or nullptr when absent. Valid until the next
  /// mutating call (exactly the unordered_map iterator contract callers
  /// already obeyed).
  V* find(u64 key) {
    return const_cast<V*>(static_cast<const flat_u64_map*>(this)->find(key));
  }
  const V* find(u64 key) const {
    if (table_.empty()) return nullptr;
    u32 i = probe_start(key);
    for (;;) {
      const u32 slot = table_[i];
      if (slot == kEmpty) return nullptr;
      if (slot != kTomb && entries_[slot - 1].key == key)
        return &entries_[slot - 1].value;
      i = (i + 1) & mask_;
    }
  }
  bool contains(u64 key) const { return find(key) != nullptr; }

  /// The mapped value, default-constructed and inserted when absent (the
  /// unordered_map operator[] semantics).
  V& operator[](u64 key) {
    if (table_.empty()) grow();
    u32* target = nullptr;
    u32 i = probe_start(key);
    for (;;) {
      u32& slot = table_[i];
      if (slot == kEmpty) {
        if (target == nullptr) target = &slot;
        break;
      }
      if (slot == kTomb) {
        if (target == nullptr) target = &slot;
      } else if (entries_[slot - 1].key == key) {
        return entries_[slot - 1].value;
      }
      i = (i + 1) & mask_;
    }
    if (*target == kTomb) --tombstones_;
    entries_.push_back({key, V{}});
    *target = static_cast<u32>(entries_.size());
    V& value = entries_.back().value;
    // Keep (live + tombstone) load under 1/2 so probe chains stay short.
    if (2 * (entries_.size() + tombstones_) >= table_.size()) grow();
    return value;
  }

  /// Insert (key, value) iff absent; returns whether it inserted (the
  /// unordered_map emplace contract — never overwrites).
  bool emplace(u64 key, V value) {
    if (contains(key)) return false;
    (*this)[key] = std::move(value);
    return true;
  }

  /// Remove key if present. Swap-removes the entry and tombstones the
  /// probe slot, so erase is O(probe) with no heap traffic.
  void erase(u64 key) {
    if (table_.empty()) return;
    u32 i = probe_start(key);
    for (;;) {
      u32& slot = table_[i];
      if (slot == kEmpty) return;
      if (slot != kTomb && entries_[slot - 1].key == key) {
        const u32 idx = slot - 1;
        slot = kTomb;
        ++tombstones_;
        const u32 last = static_cast<u32>(entries_.size()) - 1;
        if (idx != last) {
          // Repoint the moved entry's probe slot before the swap-remove.
          u32 j = probe_start(entries_[last].key);
          while (table_[j] != last + 1) j = (j + 1) & mask_;
          table_[j] = idx + 1;
          entries_[idx] = std::move(entries_[last]);
        }
        entries_.pop_back();
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  u32 size() const { return static_cast<u32>(entries_.size()); }
  bool empty() const { return entries_.empty(); }

  /// The live entries; in insertion order until the first erase() (which
  /// swap-removes).
  std::span<const entry> entries() const { return entries_; }

  /// Forget all entries but keep both arrays' capacity (scratch reuse).
  void clear() {
    entries_.clear();
    std::fill(table_.begin(), table_.end(), kEmpty);
    tombstones_ = 0;
  }

 private:
  static constexpr u32 kEmpty = 0;
  static constexpr u32 kTomb = ~u32{0};

  /// splitmix64 finalizer: full-avalanche, so sequential labels spread.
  u32 probe_start(u64 key) const {
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ull;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebull;
    key ^= key >> 31;
    return static_cast<u32>(key) & mask_;
  }

  /// Rehash into a table sized for the live entries (doubling while the
  /// live load alone demands it); tombstones are dropped wholesale.
  void grow() {
    u32 cap = table_.empty() ? 8 : static_cast<u32>(table_.size());
    while (2 * (entries_.size() + 1) >= cap) cap *= 2;
    table_.assign(cap, kEmpty);
    mask_ = cap - 1;
    tombstones_ = 0;
    for (u32 k = 0; k < entries_.size(); ++k) {
      u32 i = probe_start(entries_[k].key);
      while (table_[i] != kEmpty) i = (i + 1) & mask_;
      table_[i] = k + 1;
    }
  }

  std::vector<entry> entries_;
  /// Probe table of entry index + 1 (kEmpty = free, kTomb = erased);
  /// size is a power of two.
  std::vector<u32> table_;
  u32 mask_ = 0;
  u32 tombstones_ = 0;
};

}  // namespace hybrid
