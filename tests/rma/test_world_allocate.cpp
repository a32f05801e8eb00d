// World::allocate(words, init) on both runtimes: every rank's new words
// start at `init`, earlier words keep their values, and both hold for
// allocations inside and past a reserve().
#include <gtest/gtest.h>

#include <vector>

#include "../support/test_support.hpp"

namespace rmalock::rma {
namespace {

/// Allocates words with distinct start values around a reserve() and checks
/// every word of every rank, before a run and from inside one.
void check_allocate_init(World& world) {
  const i32 p = world.nprocs();
  const usize before = world.window_words();
  std::vector<i64> start;  // start value per offset, from `before` on
  const auto allocate = [&](usize words, i64 init) {
    const WinOffset base = world.allocate(words, init);
    EXPECT_EQ(static_cast<usize>(base), before + start.size());
    start.insert(start.end(), words, init);
    return base;
  };
  const WinOffset zeros = allocate(2, 0);
  allocate(3, 7);
  // Values written after allocation must survive later allocations and
  // the reserve() below.
  for (Rank r = 0; r < p; ++r) world.write_word(r, zeros + 1, 100 + r);

  // ThreadWorld's reserve() grows its windows with zeros ahead of time;
  // the allocations inside the reserved capacity must still write init.
  world.reserve(world.window_words() + 8);
  allocate(4, kNilRank);
  allocate(6, -42);  // straddles the end of the reserved capacity
  allocate(1, 5);

  const usize end = world.window_words();
  ASSERT_EQ(end, before + start.size());
  const auto expected = [&](Rank r, usize offset) {
    if (offset == static_cast<usize>(zeros + 1)) return i64{100} + r;
    return start[offset - before];
  };
  for (Rank r = 0; r < p; ++r) {
    for (usize offset = before; offset < end; ++offset) {
      EXPECT_EQ(world.read_word(r, static_cast<WinOffset>(offset)),
                expected(r, offset))
          << "rank " << r << ", offset " << offset;
    }
  }
  // Each rank reads its own words through the RMA path too.
  world.run([&](RmaComm& comm) {
    const Rank me = comm.rank();
    for (usize offset = before; offset < end; ++offset) {
      EXPECT_EQ(comm.get(me, static_cast<WinOffset>(offset)),
                expected(me, offset))
          << "rank " << me << ", offset " << offset;
    }
  });
}

TEST(WorldAllocate, SimWorldStartsNewWordsAtInit) {
  auto world = test::make_sim(topo::Topology::uniform({2}, 2));
  world->allocate(1, 3);  // a word before the checked range
  check_allocate_init(*world);
  EXPECT_EQ(world->read_word(1, 0), 3);
}

TEST(WorldAllocate, ThreadWorldStartsNewWordsAtInit) {
  auto world = test::make_threads(topo::Topology::uniform({}, 3));
  world->allocate(1, 3);
  check_allocate_init(*world);
  EXPECT_EQ(world->read_word(2, 0), 3);
}

}  // namespace
}  // namespace rmalock::rma
