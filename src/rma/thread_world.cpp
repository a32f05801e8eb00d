#include "rma/thread_world.hpp"

#include <thread>

#include "common/backoff.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"

namespace rmalock::rma {

// ---------------------------------------------------------------------------
// ThreadComm
// ---------------------------------------------------------------------------
class ThreadComm final : public RmaComm {
 public:
  ThreadComm(ThreadWorld& world, Rank rank)
      : world_(world),
        rank_(rank),
        rng_(mix_seed(world.options().seed, static_cast<u64>(rank))) {}

  [[nodiscard]] Rank rank() const override { return rank_; }
  [[nodiscard]] i32 nprocs() const override { return world_.nprocs(); }
  [[nodiscard]] const topo::Topology& topology() const override {
    return world_.topology();
  }

  void put(i64 src_data, Rank target, WinOffset offset) override {
    store(src_data, target, offset);
  }

  // Threads have no round trip to overlap: a nonblocking op is its blocking
  // op, complete (and seq_cst-ordered) when it returns. Converted lock paths
  // publish handoff/release flags through iput/iaccumulate (FompiSpin::
  // release, FompiRw::release_write), so the holder's preceding CS writes
  // are ordered before the flag lands even when no flush intervenes.
  void iput(i64 src_data, Rank target, WinOffset offset) override {
    store(src_data, target, offset);
  }

  void iaccumulate(i64 oprd, Rank target, WinOffset offset,
                   AccumOp op) override {
    fetch_op(OpKind::kAccumulate, oprd, target, offset, op);
  }

  i64 get(Rank target, WinOffset offset) override {
    account(OpKind::kGet, target);
    const i64 value =
        world_.word(target, offset).load(std::memory_order_seq_cst);
    // Repeated identical polls of one cell mean a spin loop; escalate
    // backoff so oversubscribed spinners release the core their notifier
    // needs (the host has 2 hardware threads).
    if (target == last_poll_target_ && offset == last_poll_offset_ &&
        value == last_poll_value_) {
      if (++poll_repeats_ >= 3) backoff_.pause();
    } else {
      last_poll_target_ = target;
      last_poll_offset_ = offset;
      last_poll_value_ = value;
      poll_repeats_ = 1;
      backoff_.reset();
    }
    return value;
  }

  i64 iget(Rank target, WinOffset offset) override {
    return get(target, offset);
  }

  void accumulate(i64 oprd, Rank target, WinOffset offset,
                  AccumOp op) override {
    fetch_op(OpKind::kAccumulate, oprd, target, offset, op);
  }

  i64 fao(i64 oprd, Rank target, WinOffset offset, AccumOp op) override {
    return fetch_op(OpKind::kFao, oprd, target, offset, op);
  }

  i64 cas(i64 src_data, i64 cmp_data, Rank target, WinOffset offset) override {
    account(OpKind::kCas, target);
    i64 expected = cmp_data;
    world_.word(target, offset)
        .compare_exchange_strong(expected, src_data,
                                 std::memory_order_seq_cst);
    note_progress();
    return expected;  // holds the previous value on failure, cmp on success
  }

  // Ranged read: per-word acquire loads — the real-hardware analogue of
  // the torn multi-word RMA read (words may interleave with concurrent
  // writers; callers must validate).
  //
  // Ordering audit (the read-path sweep): the preceding version read is an
  // acquire-or-stronger load, so the payload loads cannot be hoisted above
  // it; each payload load's own acquire keeps the validating version
  // re-read after it — a relaxed load could be reordered behind that
  // re-read and certify a torn observation. Per-word acquire instead of
  // relaxed loads plus one trailing fence, because GCC rejects
  // std::atomic_thread_fence under -fsanitize=thread -Werror. The blocking
  // get() stays seq_cst (lock handoffs poll single words and rely on its
  // acquire side), and read_word/write_word stay seq_cst (out-of-run
  // inspection wants the strongest order).
  void get_vec(Rank target, WinOffset offset, i64* out, usize n) override {
    account(OpKind::kGet, target);
    for (usize i = 0; i < n; ++i) {
      out[i] = world_.word(target, offset + static_cast<WinOffset>(i))
                   .load(std::memory_order_acquire);
    }
    note_progress();
  }

  // Every op above completes before it returns, so a flush has nothing
  // left to complete or order: it only counts itself.
  void flush(Rank target) override { account(OpKind::kFlush, target); }

  void compute(Nanos ns) override {
    const Nanos deadline = rmalock::now_ns() + ns;
    while (rmalock::now_ns() < deadline) cpu_relax();
  }

  [[nodiscard]] Nanos now_ns() override { return rmalock::now_ns(); }
  void barrier() override { world_.barrier_wait(); }
  [[nodiscard]] Xoshiro256& rng() override { return rng_; }
  [[nodiscard]] OpStats& stats() override {
    return world_.stats_[static_cast<usize>(rank_)];
  }
  [[nodiscard]] obs::Tracer* tracer() override { return world_.opts_.tracer; }

 private:
  void account(OpKind kind, Rank target) {
    world_.stats_[static_cast<usize>(rank_)].record(
        kind, distance_class(world_.topology(), rank_, target));
  }

  /// The body of put and iput.
  void store(i64 value, Rank target, WinOffset offset) {
    account(OpKind::kPut, target);
    world_.word(target, offset).store(value, std::memory_order_seq_cst);
    note_progress();
  }

  /// The body of accumulate, iaccumulate and fao: returns the previous word.
  i64 fetch_op(OpKind kind, i64 oprd, Rank target, WinOffset offset,
               AccumOp op) {
    account(kind, target);
    auto& word = world_.word(target, offset);
    const i64 old = (op == AccumOp::kSum)
                        ? word.fetch_add(oprd, std::memory_order_seq_cst)
                        : word.exchange(oprd, std::memory_order_seq_cst);
    note_progress();
    return old;
  }

  void note_progress() {
    poll_repeats_ = 0;
    last_poll_target_ = kNilRank;
    backoff_.reset();
  }

  ThreadWorld& world_;
  Rank rank_;
  Xoshiro256 rng_;
  Backoff backoff_;
  Rank last_poll_target_ = kNilRank;
  WinOffset last_poll_offset_ = -1;
  i64 last_poll_value_ = 0;
  i32 poll_repeats_ = 0;
};

// ---------------------------------------------------------------------------
// ThreadWorld
// ---------------------------------------------------------------------------

ThreadWorld::ThreadWorld(ThreadOptions opts)
    : World(opts.topology), opts_(std::move(opts)) {
  windows_.resize(static_cast<usize>(nprocs()));
  stats_.assign(static_cast<usize>(nprocs()), OpStats(topology_.num_levels()));
}

ThreadWorld::~ThreadWorld() = default;

void ThreadWorld::reserve(usize words) {
  RMALOCK_CHECK_MSG(!running_, "reserve() while run() in flight");
  for (auto& win : windows_) {
    if (words <= win.size) continue;  // already reserved
    // Value-initialised (zero) beyond the copied prefix; allocate() writes
    // each word's start value when it hands the word out.
    auto grown = std::make_unique<std::atomic<i64>[]>(words);
    for (usize i = 0; i < win.size; ++i) {
      grown[i].store(win.words[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    }
    win.words = std::move(grown);
    win.size = words;
  }
}

void ThreadWorld::grow_windows(WinOffset first, i64 init) {
  RMALOCK_CHECK_MSG(!running_, "allocate() while run() in flight");
  reserve(window_words());
  for (auto& win : windows_) {
    for (usize i = static_cast<usize>(first); i < window_words(); ++i) {
      win.words[i].store(init, std::memory_order_relaxed);
    }
  }
}

RunResult ThreadWorld::run(const std::function<void(RmaComm&)>& body) {
  RMALOCK_CHECK_MSG(!running_, "nested run()");
  running_ = true;
  barrier_count_.store(0);
  const Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<usize>(nprocs()));
  for (Rank r = 0; r < nprocs(); ++r) {
    threads.emplace_back([this, r, &body] {
      ThreadComm comm(*this, r);
      body(comm);
    });
  }
  for (auto& t : threads) t.join();
  running_ = false;
  RunResult result;
  result.makespan_ns = timer.elapsed_ns();
  return result;
}

void ThreadWorld::barrier_wait() {
  const u64 generation = barrier_generation_.load(std::memory_order_acquire);
  if (barrier_count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      nprocs()) {
    barrier_count_.store(0, std::memory_order_relaxed);
    barrier_generation_.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  Backoff backoff;
  while (barrier_generation_.load(std::memory_order_acquire) == generation) {
    backoff.pause();
  }
}

i64 ThreadWorld::read_word(Rank rank, WinOffset offset) const {
  return word(rank, offset).load(std::memory_order_seq_cst);
}

void ThreadWorld::write_word(Rank rank, WinOffset offset, i64 value) {
  word(rank, offset).store(value, std::memory_order_seq_cst);
}

OpStats ThreadWorld::aggregate_stats() const {
  OpStats agg(topology_.num_levels());
  for (const auto& s : stats_) agg += s;
  return agg;
}

}  // namespace rmalock::rma
