// Fiber stacks: one size, mapped page-aligned, and pooled across SimWorld
// instances.
//
// Size. Every fiber gets StackPool::kStackBytes (256 KiB). A stack costs
// address space, not memory: only the pages a fiber touches are resident,
// so a larger stack costs nothing until a frame reaches it, and one size
// leaves the pool one free list.
//
// Placement. Each stack is its own anonymous mapping, placed so that its
// top — where Fiber::init lays the entry frame — is the end of the
// mapping, a page boundary. No page holds an allocator header. A simulated
// process whose frames fit in one page therefore keeps one page resident;
// a malloc'd block kept three (the allocator's chunk-header page at the
// bottom, a top page the stack entered only 16 bytes deep, and the page
// below it that held the frames).
//
// Each mapping also carries one spare page below the stack, never touched,
// so stacks mapped back to back lie their size plus a page apart. At a
// 256 KiB stride every stack's top page would share its address bits up
// to bit 17, and so its cache sets in any cache indexed by lower bits (a
// 2 MiB 16-way L2 uses bits 6-16): fibers switching in turn would evict
// each other's frames. The extra page moves each top to the next page
// colour, as the malloc'd blocks' 16-byte header did.
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
// stacks on a thread-local free list, so a sweep faults each stack page in
// once instead of once per world.
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
      : map_(std::exchange(other.map_, nullptr)) {}
  FiberStack& operator=(FiberStack&& other) noexcept;
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;
  ~FiberStack();

  /// End of the mapping, page-aligned: the stack spans
  /// [top() - StackPool::kStackBytes, top()).
  [[nodiscard]] char* top() const;
  explicit operator bool() const { return map_ != nullptr; }

 private:
  friend class StackPool;
  explicit FiberStack(char* map) : map_(map) {}

  char* map_ = nullptr;  // lowest byte of the mapping
};

class StackPool {
 public:
  /// Stack bytes below every fiber's top.
  static constexpr usize kStackBytes = usize{256} * 1024;

  /// Cap on pooled bytes per thread: a P=1024 sweep keeps exactly one
  /// generation of stacks mapped.
  static constexpr usize kMaxPooledBytes = usize{512} * 1024 * 1024;

  /// Bytes one stack maps: kStackBytes and the spare page below it.
  [[nodiscard]] static usize mapped_bytes();

  /// The calling thread's pool.
  static StackPool& local();

  /// A stack: a pooled one if there is one, else freshly mapped
  /// (untouched, so not resident).
  [[nodiscard]] FiberStack acquire();

  /// Returns a stack to the pool. Unmaps it instead when pooling it would
  /// take the pool past kMaxPooledBytes.
  void release(FiberStack stack);

  /// Mapped bytes currently pooled on this thread (tests/benches).
  [[nodiscard]] usize pooled_bytes() const {
    return stacks_.size() * mapped_bytes();
  }

  /// Resident bytes of the pooled stacks, read with mincore
  /// (tests/benches).
  [[nodiscard]] usize resident_bytes() const;

  /// Unmaps every pooled stack (tests; memory-pressure escape hatch).
  void clear() { stacks_.clear(); }

 private:
  std::vector<FiberStack> stacks_;
};

}  // namespace rmalock::rma
