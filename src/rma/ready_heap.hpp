// ReadyHeap — SimWorld's kVirtualTime ready queue: a binary min-heap of
// runnable ranks on the strict (clock, rank) order.
//
// A rank is queued at most once, so no two entries compare equal and the
// sequence of minima is fixed by the entries alone, whatever the heap's
// internal layout: this heap picks exactly what any other correct min-heap
// would. replace_top is the context-switch primitive: a process that yields
// behind the minimum swaps itself in for it with one sift-down, instead of a
// push (sift-up) followed by a pop (sift-down).
#pragma once

#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace rmalock::rma {

class ReadyHeap {
 public:
  struct Entry {
    Nanos clock = 0;
    Rank rank = kNilRank;
  };

  /// The scheduling order: earlier clock first, ties broken by lower rank.
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.clock != b.clock ? a.clock < b.clock : a.rank < b.rank;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] usize size() const { return heap_.size(); }
  void clear() { heap_.clear(); }

  /// The minimum entry; the heap must not be empty.
  [[nodiscard]] const Entry& top() const {
    RMALOCK_DCHECK(!heap_.empty());
    return heap_.front();
  }

  void push(Entry entry) {
    usize i = heap_.size();
    heap_.push_back(entry);
    while (i > 0) {
      const usize parent = (i - 1) / 2;
      if (!before(entry, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = entry;
  }

  /// Removes and returns the minimum; the heap must not be empty.
  Entry pop() {
    const Entry min = top();
    const Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down_from_root(last);
    return min;
  }

  /// Removes and returns the minimum and inserts `entry` in one pass (pop
  /// then push: the old minimum is returned even if `entry` is smaller);
  /// the heap must not be empty.
  Entry replace_top(Entry entry) {
    const Entry min = top();
    sift_down_from_root(entry);
    return min;
  }

 private:
  /// Places `entry` in the root's slot and sifts it down to its level.
  void sift_down_from_root(Entry entry) {
    const usize n = heap_.size();
    usize i = 0;
    for (;;) {
      usize child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], entry)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = entry;
  }

  std::vector<Entry> heap_;
};

}  // namespace rmalock::rma
