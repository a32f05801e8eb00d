// ReadyHeap against a std::priority_queue reference: seeded random push /
// pop / replace_top streams must produce the same sequence of minima.
#include "rma/ready_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace rmalock::rma {
namespace {

using Key = std::pair<Nanos, Rank>;  // (clock, rank): the same strict order
using Reference = std::priority_queue<Key, std::vector<Key>, std::greater<>>;

Key key_of(const ReadyHeap::Entry& e) { return {e.clock, e.rank}; }

/// Drives both queues with one random stream of `ops` operations. Pushes
/// are twice as likely as pops while the size is below `cap`, so the stream
/// climbs to `cap` and stays near it; clocks are drawn from
/// [0, clock_span), so a small span makes most clocks tie and the rank
/// decide. Each rank is queued at most once, as in SimWorld. Adds the
/// number of minima compared to `compared`.
void run_stream(u64 seed, i32 cap, Nanos clock_span, i32 ops,
                usize& compared) {
  Xoshiro256 rng(seed);
  ReadyHeap heap;
  Reference ref;
  // Ranks not currently queued; 2 * cap of them, so pushes pick among many.
  std::vector<Rank> free_ranks;
  for (Rank r = 0; r < 2 * cap; ++r) free_ranks.push_back(r);
  const auto draw_entry = [&] {
    const usize i = static_cast<usize>(rng.below(free_ranks.size()));
    const Rank rank = free_ranks[i];
    free_ranks[i] = free_ranks.back();
    free_ranks.pop_back();
    return ReadyHeap::Entry{
        static_cast<Nanos>(rng.below(static_cast<u64>(clock_span))), rank};
  };
  const auto expect_min = [&](const ReadyHeap::Entry& got) {
    EXPECT_EQ(key_of(got), ref.top())
        << "seed " << seed << ", cap " << cap << ", span " << clock_span;
    ++compared;
  };
  usize peak = 0;
  for (i32 op = 0; op < ops; ++op) {
    ASSERT_EQ(heap.size(), ref.size());
    if (!heap.empty()) {
      ASSERT_EQ(key_of(heap.top()), ref.top());
    }
    peak = std::max(peak, heap.size());
    const u64 kind = rng.below(4);
    if (heap.empty() || (kind <= 1 && heap.size() < static_cast<usize>(cap))) {
      const ReadyHeap::Entry e = draw_entry();
      heap.push(e);
      ref.push(key_of(e));
    } else if (kind == 2) {
      const ReadyHeap::Entry got = heap.pop();
      expect_min(got);
      ref.pop();
      free_ranks.push_back(got.rank);
    } else {
      // Pop then push: the old minimum comes back even when the new entry
      // is smaller.
      const ReadyHeap::Entry e = draw_entry();
      const ReadyHeap::Entry got = heap.replace_top(e);
      expect_min(got);
      ref.pop();
      ref.push(key_of(e));
      free_ranks.push_back(got.rank);
    }
  }
  EXPECT_EQ(peak, static_cast<usize>(cap));
  while (!heap.empty()) {
    expect_min(heap.pop());
    ref.pop();
  }
  EXPECT_TRUE(ref.empty());
}

TEST(ReadyHeap, MatchesPriorityQueueOnRandomStreams) {
  usize compared = 0;
  for (const i32 cap : {1, 2, 3, 5, 8, 17, 64, 255, 1024}) {
    for (const Nanos span : {Nanos{1}, Nanos{4}, Nanos{1'000'000}}) {
      for (u64 seed = 1; seed <= 4; ++seed) {
        run_stream(mix_seed(seed, static_cast<u64>(cap)), cap, span,
                   /*ops=*/8 * cap + 200, compared);
      }
    }
  }
  EXPECT_GT(compared, 10'000u);
}

TEST(ReadyHeap, FullHeapReplaceTopStreamMatches) {
  // The SimWorld shape: the heap holds every rank but the running one, and
  // each context switch swaps the running rank, its clock advanced, in for
  // the minimum.
  for (const i32 p : {2, 16, 1024}) {
    Xoshiro256 rng(static_cast<u64>(p));
    ReadyHeap heap;
    Reference ref;
    for (Rank r = 1; r < p; ++r) {
      const ReadyHeap::Entry e{static_cast<Nanos>(rng.below(8)), r};
      heap.push(e);
      ref.push(key_of(e));
    }
    ReadyHeap::Entry running{0, 0};
    for (i32 step = 0; step < 20'000; ++step) {
      running.clock += static_cast<Nanos>(rng.below(4));
      const ReadyHeap::Entry got = heap.replace_top(running);
      ASSERT_EQ(key_of(got), ref.top()) << "P " << p << ", step " << step;
      ref.pop();
      ref.push(key_of(running));
      running = got;
    }
  }
}

}  // namespace
}  // namespace rmalock::rma
