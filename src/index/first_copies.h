// FirstCopies: the set RrSketchPool::FromRuns and the index loader
// share a root range's blocks through.

#ifndef PITEX_SRC_INDEX_FIRST_COPIES_H_
#define PITEX_SRC_INDEX_FIRST_COPIES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/util/bits.h"

namespace pitex {

/// The first copies of one root range, as the sharing rule keeps them
/// (src/index/rr_sketch_pool.h, "Shared shapes"), each found by its
/// bytes in expected O(1) through an open-addressing table sized to the
/// range: at least twice its copies and under four times as many (or
/// kMinSlots), so neither a range of many distinct blocks nor the ranges
/// after one cost more per block than a small range. A lookup
/// compares a block's length and first 8 bytes, which decide every block
/// of up to 8 bytes, and the rest with memcmp. A block's first 8 bytes
/// load inside its pool's body, whose blocks end in kBitPadding zero
/// bytes.
class FirstCopies {
 public:
  struct Copy {
    const uint8_t* bytes;
    uint64_t length;
    uint64_t start;  // where the copy starts in the pool being written
  };

  /// Slots in the table, 0 before the range's first copy.
  size_t slots() const { return table_.size(); }
  /// Empties the set for the next range.
  void Clear() {
    entries_.clear();
    table_.clear();
  }
  /// The copy byte-equal to the `length` bytes at `bytes`, if any;
  /// else adds them as the copy starting at `start`, past every copy
  /// held, and returns nullptr.
  const Copy* FindOrAdd(const uint8_t* bytes, uint64_t length,
                        uint64_t start) {
    if (2 * (entries_.size() + 1) > table_.size()) Grow();
    const uint64_t head = Head(bytes, length);
    size_t slot = Slot(head, length);
    for (uint32_t index; (index = table_[slot]) != 0;
         slot = (slot + 1) & Mask()) {
      const Entry& entry = entries_[index - 1];
      if (Equal(entry, bytes, length, head)) return &entry.copy;
    }
    entries_.push_back({{bytes, length, start}, head});
    table_[slot] = static_cast<uint32_t>(entries_.size());
    return nullptr;
  }
  /// The copy that starts at `start`, if any: copies are added in
  /// ascending start order.
  const Copy* AtStart(uint64_t start) const {
    const auto it = std::ranges::lower_bound(
        entries_, start, {}, [](const Entry& e) { return e.copy.start; });
    return it != entries_.end() && it->copy.start == start ? &it->copy
                                                           : nullptr;
  }

 private:
  static constexpr size_t kMinSlots = 16;
  static constexpr uint64_t kHead = sizeof(uint64_t);
  struct Entry {
    Copy copy;
    uint64_t head;  // its first 8 bytes, masked to its length
  };

  static uint64_t Head(const uint8_t* bytes, uint64_t length) {
    return LoadBits(bytes, 0) &
           (length < kHead ? LowMask(static_cast<uint32_t>(8 * length))
                           : UINT64_MAX);
  }
  static bool Equal(const Entry& entry, const uint8_t* bytes, uint64_t length,
                    uint64_t head) {
    return entry.head == head && entry.copy.length == length &&
           (length <= kHead || std::memcmp(entry.copy.bytes + kHead,
                                           bytes + kHead, length - kHead) == 0);
  }
  size_t Mask() const { return table_.size() - 1; }
  size_t Slot(uint64_t head, uint64_t length) const {
    return static_cast<size_t>(
               ((head ^ (length * 0x9e3779b97f4a7c15ULL)) *
                0xbf58476d1ce4e5b9ULL) >>
               32) &
           Mask();
  }
  /// Doubles the table (to kMinSlots from empty) and slots every copy
  /// held again. The vector keeps its capacity across ranges, so only
  /// a range larger than every earlier one allocates.
  void Grow() {
    table_.assign(std::max(kMinSlots, 2 * table_.size()), 0);
    for (size_t i = 0; i < entries_.size(); ++i) {
      size_t slot = Slot(entries_[i].head, entries_[i].copy.length);
      while (table_[slot] != 0) slot = (slot + 1) & Mask();
      table_[slot] = static_cast<uint32_t>(i + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> table_;  // an entry's index + 1, or 0 when empty
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_FIRST_COPIES_H_
