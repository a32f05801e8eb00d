// ThreadWorld — real-concurrency RMA runtime over std::thread/std::atomic.
//
// Purpose: validate the lock protocols under genuine hardware interleavings
// and memory-system reordering, complementing SimWorld's controlled
// schedules. Every window word is a std::atomic<i64> and every RMA call maps
// to a seq_cst atomic operation, which implements the sequentially
// consistent op semantics documented in comm.hpp.
//
// This runtime is for correctness work at small P (the host has 2 cores) —
// performance numbers come from SimWorld. Spin loops in the protocols are
// kept livable under oversubscription by the same repeated-poll detector
// SimWorld uses for parking: here it escalates an exponential backoff
// instead.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "rma/world.hpp"

namespace rmalock::rma {

struct ThreadOptions {
  topo::Topology topology;
  u64 seed = 1;
  /// Structured event sink (obs/trace.hpp). Not owned; must outlive run().
  /// Safe under real threads: each rank writes only its own ring and
  /// counter slice. Timestamps are the real monotonic clock, so ThreadWorld
  /// traces are diagnostics, not deterministic artifacts (that contract is
  /// SimWorld's).
  obs::Tracer* tracer = nullptr;
};

class ThreadWorld final : public World {
 public:
  explicit ThreadWorld(ThreadOptions opts);
  ~ThreadWorld() override;

  static std::unique_ptr<ThreadWorld> create(ThreadOptions opts) {
    return std::make_unique<ThreadWorld>(std::move(opts));
  }

  RunResult run(const std::function<void(RmaComm&)>& body) override;

  [[nodiscard]] i64 read_word(Rank rank, WinOffset offset) const override;
  void write_word(Rank rank, WinOffset offset, i64 value) override;
  void reserve(usize words) override;
  [[nodiscard]] OpStats aggregate_stats() const override;

  [[nodiscard]] const ThreadOptions& options() const { return opts_; }

 private:
  friend class ThreadComm;

  struct Window {
    std::unique_ptr<std::atomic<i64>[]> words;
    usize size = 0;  // capacity: at least window_words()
  };

  void grow_windows(WinOffset first, i64 init) override;

  [[nodiscard]] std::atomic<i64>& word(Rank rank, WinOffset offset) {
    return windows_[static_cast<usize>(rank)]
        .words[static_cast<usize>(offset)];
  }
  [[nodiscard]] const std::atomic<i64>& word(Rank rank,
                                             WinOffset offset) const {
    return windows_[static_cast<usize>(rank)]
        .words[static_cast<usize>(offset)];
  }

  void barrier_wait();

  ThreadOptions opts_;
  std::vector<Window> windows_;
  std::vector<OpStats> stats_;  // per rank; each written by its own thread

  std::atomic<i32> barrier_count_{0};
  std::atomic<u64> barrier_generation_{0};
  bool running_ = false;
};

}  // namespace rmalock::rma
