#include "rma/stack_pool.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "common/check.hpp"

namespace rmalock::rma {

namespace {

usize page_bytes() {
  static const auto page = static_cast<usize>(sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

FiberStack& FiberStack::operator=(FiberStack&& other) noexcept {
  if (this != &other) {
    FiberStack old(std::move(*this));
    map_ = std::exchange(other.map_, nullptr);
  }
  return *this;
}

FiberStack::~FiberStack() {
  if (map_ != nullptr) munmap(map_, StackPool::mapped_bytes());
}

char* FiberStack::top() const { return map_ + StackPool::mapped_bytes(); }

usize StackPool::mapped_bytes() {
  // One spare page below the stack (see the header comment).
  static const usize mapped = kStackBytes + page_bytes();
  return mapped;
}

StackPool& StackPool::local() {
  thread_local StackPool pool;
  return pool;
}

FiberStack StackPool::acquire() {
  if (!stacks_.empty()) {
    FiberStack stack = std::move(stacks_.back());
    stacks_.pop_back();
    return stack;
  }
  const usize mapped = mapped_bytes();
  void* map = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RMALOCK_CHECK_MSG(map != MAP_FAILED,
                    "mapping a " << mapped << "-byte fiber stack failed");
#ifdef MADV_NOHUGEPAGE
  // Advisory: a kernel built without THP rejects it, and then has no huge
  // pages to avoid.
  madvise(map, mapped, MADV_NOHUGEPAGE);
#endif
  return FiberStack(static_cast<char*>(map));
}

void StackPool::release(FiberStack stack) {
  if (!stack) return;
  // Past the cap `stack` goes out of scope here, which unmaps it.
  if (pooled_bytes() + mapped_bytes() > kMaxPooledBytes) return;
  stacks_.push_back(std::move(stack));
}

usize StackPool::resident_bytes() const {
  const usize page = page_bytes();
  std::vector<unsigned char> pages(mapped_bytes() / page);
  usize resident = 0;
  for (const FiberStack& stack : stacks_) {
    RMALOCK_CHECK(mincore(stack.map_, mapped_bytes(), pages.data()) == 0);
    for (const unsigned char flags : pages) {
      if ((flags & 1U) != 0) resident += page;
    }
  }
  return resident;
}

}  // namespace rmalock::rma
