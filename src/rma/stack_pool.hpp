// Fiber stacks: mapped page-aligned, and pooled across SimWorld instances.
//
// Placement. Each stack is its own anonymous mapping of the requested size
// rounded up to whole pages, placed so that its top — base + the requested
// size, where Fiber::init lays the entry frame — is the end of the mapping,
// a page boundary. No page holds an allocator header. A simulated process
// whose frames fit in one page therefore keeps one page resident; a
// malloc'd block kept three (the allocator's chunk-header page at the
// bottom, a top page the stack entered only 16 bytes deep, and the page
// below it that held the frames).
//
// Each mapping also carries one spare page below the stack, never touched,
// so stacks mapped back to back lie their size plus a page apart. At the
// default 256 KiB stride every stack's top page would share its address
// bits up to bit 17, and so its cache sets in any cache indexed by lower
// bits (a 2 MiB 16-way L2 uses bits 6-16): fibers switching in turn would
// evict each other's frames. The extra page moves each top to the next
// page colour, as the malloc'd blocks' 16-byte header did.
//
// No guard page. A guard page would split every stack into two mappings,
// and 64 campaign workers × P = 1024 fibers would pass the kernel's default
// vm.max_map_count (65530). Without one, stacks mapped back to back merge
// into a single mapping. Transparent huge pages are turned off on every
// stack (MADV_NOHUGEPAGE, where the platform defines it): a kernel with
// THP = always could otherwise back such a merged run with 2 MiB pages,
// and each fiber's one page would cost a share of a huge page.
//
// Reuse. Benchmark sweeps and model-checking campaigns construct a fresh
// SimWorld per measurement point / explored schedule — at ~3e5 schedules
// per exhaustive sweep, mapping P stacks per world dominates wall time
// through page faulting alone; the mc_verification --exhaustive sweep spent
// half its runtime in the kernel before pooling. The pool keeps released
// stacks on thread-local free lists keyed by mapped size, so a sweep faults
// each stack page in once instead of once per world.
//
// Thread-locality makes the pool lock-free and is sufficient: all fibers of
// a SimWorld run on the thread that calls run(), and worlds are created and
// destroyed on that same thread in every existing driver. Stacks are never
// zeroed on reuse — fiber entry rebuilds its frame from scratch, and a
// simulated process only ever reads stack memory it wrote.
#pragma once

#include <utility>
#include <vector>

#include "common/types.hpp"

namespace rmalock::rma {

/// One mapped fiber stack. Move-only; unmapped when destroyed. Obtained
/// from StackPool::acquire and handed back with StackPool::release.
class FiberStack {
 public:
  FiberStack() = default;
  FiberStack(FiberStack&& other) noexcept
      : map_(std::exchange(other.map_, nullptr)),
        mapped_bytes_(std::exchange(other.mapped_bytes_, 0)) {}
  FiberStack& operator=(FiberStack&& other) noexcept;
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;
  ~FiberStack();

  /// End of the mapping, page-aligned: a stack of n bytes (n at most the
  /// size it was acquired for) spans [top() - n, top()).
  [[nodiscard]] char* top() const { return map_ + mapped_bytes_; }
  [[nodiscard]] usize mapped_bytes() const { return mapped_bytes_; }
  explicit operator bool() const { return map_ != nullptr; }

 private:
  friend class StackPool;
  FiberStack(char* map, usize mapped_bytes)
      : map_(map), mapped_bytes_(mapped_bytes) {}

  char* map_ = nullptr;  // lowest byte of the mapping
  usize mapped_bytes_ = 0;
};

class StackPool {
 public:
  /// The calling thread's pool.
  static StackPool& local();

  /// A stack of at least `bytes` bytes below its top, mapped to the page
  /// multiple plus the spare page: reused if one of that mapped size is
  /// pooled, freshly mapped (untouched, so not resident) otherwise.
  [[nodiscard]] FiberStack acquire(usize bytes);

  /// Returns a stack to the pool. Unmaps it instead when pooling it would
  /// take the pool past kMaxPooledBytes.
  void release(FiberStack stack);

  /// Mapped bytes currently pooled on this thread (tests/benches).
  [[nodiscard]] usize pooled_bytes() const { return pooled_bytes_; }

  /// Resident bytes of the pooled stacks, read with mincore
  /// (tests/benches).
  [[nodiscard]] usize resident_bytes() const;

  /// Unmaps every pooled stack (tests; memory-pressure escape hatch).
  void clear();

  /// Cap on pooled bytes per thread: a P=1024 sweep with the default
  /// 256 KiB stacks keeps exactly one generation of stacks mapped.
  static constexpr usize kMaxPooledBytes = usize{512} * 1024 * 1024;

 private:
  struct SizeClass {
    usize mapped_bytes = 0;
    std::vector<FiberStack> stacks;
  };

  // Few distinct sizes in practice (the SimOptions default and the MC
  // explorer's small stacks): linear scan beats a map.
  std::vector<SizeClass> classes_;
  usize pooled_bytes_ = 0;
};

}  // namespace rmalock::rma
