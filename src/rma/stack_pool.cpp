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

usize round_up_to_page(usize bytes) {
  const usize page = page_bytes();
  return (bytes + page - 1) / page * page;
}

}  // namespace

FiberStack& FiberStack::operator=(FiberStack&& other) noexcept {
  if (this != &other) {
    FiberStack old(std::move(*this));
    map_ = std::exchange(other.map_, nullptr);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
  }
  return *this;
}

FiberStack::~FiberStack() {
  if (map_ != nullptr) munmap(map_, mapped_bytes_);
}

StackPool& StackPool::local() {
  thread_local StackPool pool;
  return pool;
}

FiberStack StackPool::acquire(usize bytes) {
  // One spare page below the stack (see the header comment).
  const usize mapped = round_up_to_page(bytes) + page_bytes();
  for (SizeClass& sc : classes_) {
    if (sc.mapped_bytes == mapped && !sc.stacks.empty()) {
      FiberStack stack = std::move(sc.stacks.back());
      sc.stacks.pop_back();
      pooled_bytes_ -= mapped;
      return stack;
    }
  }
  void* map = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RMALOCK_CHECK_MSG(map != MAP_FAILED,
                    "mapping a " << mapped << "-byte fiber stack failed");
#ifdef MADV_NOHUGEPAGE
  // Advisory: a kernel built without THP rejects it, and then has no huge
  // pages to avoid.
  madvise(map, mapped, MADV_NOHUGEPAGE);
#endif
  return {static_cast<char*>(map), mapped};
}

void StackPool::release(FiberStack stack) {
  if (!stack) return;
  const usize mapped = stack.mapped_bytes();
  if (pooled_bytes_ + mapped > kMaxPooledBytes) return;  // unmaps `stack`
  pooled_bytes_ += mapped;
  for (SizeClass& sc : classes_) {
    if (sc.mapped_bytes == mapped) {
      sc.stacks.push_back(std::move(stack));
      return;
    }
  }
  classes_.push_back(SizeClass{mapped, {}});
  classes_.back().stacks.push_back(std::move(stack));
}

usize StackPool::resident_bytes() const {
  const usize page = page_bytes();
  std::vector<unsigned char> pages;
  usize resident = 0;
  for (const SizeClass& sc : classes_) {
    pages.resize(sc.mapped_bytes / page);
    for (const FiberStack& stack : sc.stacks) {
      RMALOCK_CHECK(mincore(stack.map_, stack.mapped_bytes_, pages.data()) ==
                    0);
      for (const unsigned char flags : pages) {
        if ((flags & 1U) != 0) resident += page;
      }
    }
  }
  return resident;
}

void StackPool::clear() {
  classes_.clear();
  pooled_bytes_ = 0;
}

}  // namespace rmalock::rma
