// StackPool: fiber stacks are mapped with their top on a page boundary,
// reused through the per-thread pool, unmapped past the pool's cap, and a
// simulated process keeps one resident page of its stack.
#include "rma/stack_pool.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "harness/microbench.hpp"
#include "locks/rma_rw.hpp"
#include "rma/fiber.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::rma {
namespace {

usize page_bytes() { return static_cast<usize>(sysconf(_SC_PAGESIZE)); }

/// True iff the page ending at `top` is mapped (mincore fails with ENOMEM
/// on an unmapped range).
bool page_below_is_mapped(char* top) {
  unsigned char resident = 0;
  if (mincore(top - page_bytes(), page_bytes(), &resident) == 0) return true;
  EXPECT_EQ(errno, ENOMEM);
  return false;
}

usize maps_lines() {
  std::ifstream maps("/proc/self/maps");
  usize lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(StackPool, TopIsPageAlignedAndTheWholeStackIsWritable) {
  StackPool pool;
  const usize page = page_bytes();
  for (const usize bytes : {usize{64} * 1024, usize{256} * 1024,
                            usize{64} * 1024 + 100}) {
    FiberStack stack = pool.acquire(bytes);
    ASSERT_TRUE(stack);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(stack.top()) % page, 0U) << bytes;
    // The page-rounded stack and the spare page below it.
    EXPECT_EQ(stack.mapped_bytes(), (bytes + page - 1) / page * page + page);
    char* const base = stack.top() - bytes;
    base[0] = 1;
    stack.top()[-1] = 2;
    EXPECT_EQ(base[0] + stack.top()[-1], 3);
  }
}

TEST(StackPool, ReleaseThenAcquireReturnsTheSameStack) {
  StackPool pool;
  FiberStack stack = pool.acquire(64 * 1024);
  char* const top = stack.top();
  const usize mapped = stack.mapped_bytes();
  pool.release(std::move(stack));
  EXPECT_EQ(pool.pooled_bytes(), mapped);
  const FiberStack again = pool.acquire(64 * 1024);
  EXPECT_EQ(again.top(), top);
  EXPECT_EQ(pool.pooled_bytes(), 0U);
}

TEST(StackPool, ReleasePastTheCapUnmapsInsteadOfPooling) {
  StackPool pool;
  pool.release(pool.acquire(64 * 1024));
  const usize pooled = pool.pooled_bytes();
  ASSERT_GT(pooled, 0U);
  // Mapped, never touched: costs address space, not memory.
  FiberStack big = pool.acquire(StackPool::kMaxPooledBytes);
  char* const top = big.top();
  ASSERT_TRUE(page_below_is_mapped(top));
  pool.release(std::move(big));
  EXPECT_EQ(pool.pooled_bytes(), pooled);
  EXPECT_FALSE(page_below_is_mapped(top));
  pool.clear();
  EXPECT_EQ(pool.pooled_bytes(), 0U);
}

// fig5a's RMA-RW configuration (T_DC = 16, T_L = 16 at both levels,
// T_R = 1000, F_W = 2% per request) at P = 1024, 16 requests per rank, on a
// fresh thread so the pool holds exactly this world's stacks. Each fiber's
// frames fit in its stack's top page, so each pooled stack keeps that one
// page resident, and the stacks, mapped back to back with no guard page,
// merge instead of adding a mapping each.
TEST(StackPool, OneResidentPagePerProcessAfterAFig5aLoop) {
  if (RMALOCK_ASAN || RMALOCK_TSAN) {
    GTEST_SKIP() << "sanitizer-instrumented frames are larger";
  }
  constexpr i32 kProcs = 1024;
  usize stacks = 0;
  usize resident = 0;
  usize new_maps_lines = 0;
  std::thread([&] {
    const usize maps_before = maps_lines();
    {
      SimOptions opts;
      opts.topology = topo::Topology::uniform({kProcs / 16}, 16);
      SimWorld world(opts);
      locks::RmaRwParams params;
      params.tdc = 16;
      params.locality.assign(2, 16);
      params.tr = 1000;
      locks::RmaRw lock(world, params);
      harness::MicrobenchConfig config;
      config.ops_per_proc = 16;
      config.fw = 0.02;
      config.role_mode = harness::RoleMode::kPerOp;
      const harness::BenchResult result =
          harness::run_lock_bench(world, lock, config);
      EXPECT_EQ(result.total_acquires, u64{kProcs} * 16);
    }
    const StackPool& pool = StackPool::local();
    stacks = pool.pooled_bytes() / (usize{256} * 1024 + page_bytes());
    resident = pool.resident_bytes();
    new_maps_lines = maps_lines() - maps_before;
  }).join();
  EXPECT_EQ(stacks, static_cast<usize>(kProcs));
  EXPECT_EQ(resident, stacks * page_bytes());
  EXPECT_LT(new_maps_lines, 32U);
}

}  // namespace
}  // namespace rmalock::rma
