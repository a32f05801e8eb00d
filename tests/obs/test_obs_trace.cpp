// Tracer: ring wrap/overflow semantics, the Chrome trace-event JSON schema
// pin, post-mortem rendering, which ops SimWorld logs as rma-op events, and
// end-to-end byte determinism of SimWorld traces (same run -> same bytes;
// the cross---jobs flavor of the same claim is self-checked by
// fig7_lockspace).
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>

#include "locks/rma_mcs.hpp"
#include "rma/sim_world.hpp"

namespace rmalock::obs {
namespace {

TEST(RankRing, KeepsTailOnOverflow) {
  RankRing ring(4);
  for (i64 i = 0; i < 10; ++i) {
    Event e;
    e.seq = static_cast<u32>(i);
    e.a = i;
    ring.emit(e);
  }
  EXPECT_EQ(ring.emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.capacity(), 4u);
  const auto tail = ring.snapshot();
  ASSERT_EQ(tail.size(), 4u);
  // Overwrite-oldest: the survivors are the LAST four, oldest first.
  for (usize i = 0; i < 4; ++i) {
    EXPECT_EQ(tail[i].a, static_cast<i64>(6 + i));
    EXPECT_EQ(tail[i].seq, static_cast<u32>(6 + i));
  }
}

TEST(RankRing, NoDropsBelowCapacity) {
  RankRing ring(8);
  for (i64 i = 0; i < 5; ++i) {
    Event e;
    e.a = i;
    ring.emit(e);
  }
  EXPECT_EQ(ring.dropped(), 0u);
  const auto all = ring.snapshot();
  ASSERT_EQ(all.size(), 5u);
  EXPECT_EQ(all.front().a, 0);
  EXPECT_EQ(all.back().a, 4);
}

TEST(Tracer, PerRankSequencesAndCounts) {
  Tracer tracer(3, /*capacity_per_rank=*/16);
  tracer.emit(0, EventCode::kRmaOp, Phase::kInstant, 100);
  tracer.emit(2, EventCode::kRmaOp, Phase::kInstant, 100);
  tracer.emit(0, EventCode::kCrash, Phase::kInstant, 200);
  EXPECT_EQ(tracer.total_emitted(), 3u);
  EXPECT_EQ(tracer.total_dropped(), 0u);
  EXPECT_EQ(tracer.count(EventCode::kRmaOp), 2u);
  EXPECT_EQ(tracer.count(EventCode::kCrash), 1u);
  EXPECT_EQ(tracer.count(EventCode::kTear), 0u);
  // seq is per-rank: rank 0's second event has seq 1, rank 2's first has 0.
  EXPECT_EQ(tracer.ring(0).snapshot()[1].seq, 1u);
  EXPECT_EQ(tracer.ring(2).snapshot()[0].seq, 0u);
}

TEST(ChromeTrace, SchemaPin) {
  // Byte-level pin of the export schema: Perfetto/chrome://tracing load
  // this shape, and the jobs-determinism self-checks compare these bytes.
  // Breaking this test means every recorded artifact changes — bump
  // deliberately.
  Tracer tracer(2, /*capacity_per_rank=*/8);
  tracer.emit(0, EventCode::kAcquire, Phase::kBegin, 1000);
  tracer.emit(0, EventCode::kAcquire, Phase::kEnd, 3500);
  tracer.emit(1, EventCode::kRmaOp, Phase::kInstant, 2000, /*a=*/1, /*b=*/0,
              /*c=*/2);
  const std::string json = chrome_trace_json(tracer);
  const std::string expected =
      "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
      "  {\"name\": \"acquire\", \"cat\": \"rmalock\", \"ph\": \"B\", "
      "\"ts\": 1.000, \"pid\": 0, \"tid\": 0, "
      "\"args\": {\"seq\": 0, \"a\": 0, \"b\": 0, \"c\": 0}},\n"
      "  {\"name\": \"acquire\", \"cat\": \"rmalock\", \"ph\": \"E\", "
      "\"ts\": 3.500, \"pid\": 0, \"tid\": 0, "
      "\"args\": {\"seq\": 1, \"a\": 0, \"b\": 0, \"c\": 0}},\n"
      "  {\"name\": \"rma-op\", \"cat\": \"rmalock\", \"ph\": \"i\", "
      "\"ts\": 2.000, \"pid\": 0, \"tid\": 1, \"s\": \"t\", "
      "\"args\": {\"seq\": 0, \"a\": 1, \"b\": 0, \"c\": 2}}\n"
      "]}\n";
  EXPECT_EQ(json, expected);
}

TEST(ChromeTrace, EmptyTracerIsValidJson) {
  Tracer tracer(1);
  EXPECT_EQ(chrome_trace_json(tracer),
            "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n]}\n");
}

TEST(FormatText, LegacyLineShape) {
  Event e;
  e.ts_ns = 1234;
  e.rank = 3;
  e.code = EventCode::kWake;
  e.a = 1;
  e.b = 64;
  const std::string line = format_text(e);
  EXPECT_NE(line.find("[trace"), std::string::npos);
  EXPECT_NE(line.find("r3"), std::string::npos);
  EXPECT_NE(line.find("WAKE"), std::string::npos);
}

TEST(PostMortem, ReportsTailAndDrops) {
  Tracer tracer(2, /*capacity_per_rank=*/4);
  for (i64 i = 0; i < 10; ++i) {
    tracer.emit(0, EventCode::kRmaOp, Phase::kInstant, i * 10, i);
  }
  tracer.emit(1, EventCode::kCrash, Phase::kInstant, 55, /*a=*/1);
  const std::string pm = render_post_mortem(tracer, /*tail_per_rank=*/4);
  EXPECT_NE(pm.find("rank 0: 10 events recorded, 6 overwritten"),
            std::string::npos);
  EXPECT_NE(pm.find("rank 1: 1 events recorded, 0 overwritten"),
            std::string::npos);
  EXPECT_NE(pm.find("CRASH"), std::string::npos);
}

TEST(SimWorldTrace, SameRunSameBytes) {
  // End-to-end determinism: two identical SimWorld runs with armed tracers
  // must serialize to byte-identical Chrome traces (the unit-level half of
  // the cross---jobs claim fig7 self-checks).
  const auto run_traced = [] {
    Tracer tracer(4);
    rma::SimOptions opts;
    opts.topology = topo::Topology::uniform({2}, 2);
    opts.seed = 11;
    opts.tracer = &tracer;
    auto world = rma::SimWorld::create(opts);
    locks::RmaMcs lock(*world);
    world->run([&](rma::RmaComm& comm) {
      for (i32 i = 0; i < 3; ++i) {
        lock.acquire(comm);
        lock.release(comm);
      }
    });
    return chrome_trace_json(tracer);
  };
  const std::string first = run_traced();
  const std::string second = run_traced();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The run actually traced the protocol: acquire spans and RMA ops exist.
  EXPECT_NE(first.find("\"name\": \"acquire\""), std::string::npos);
  EXPECT_NE(first.find("\"name\": \"critical-section\""), std::string::npos);
  EXPECT_NE(first.find("\"name\": \"rma-op\""), std::string::npos);
}

TEST(SimWorldTrace, RmaOpEventsPerOpKind) {
  // Blocking and nonblocking single-word ops each log one rma-op event;
  // flush, try attempts and a multi-word get_vec log none.
  Tracer tracer(2);
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({}, 2);
  opts.tracer = &tracer;
  auto world = rma::SimWorld::create(opts);
  const WinOffset off = world->allocate(3);
  world->run([&](rma::RmaComm& comm) {
    if (comm.rank() != 0) return;
    comm.put(1, 1, off);
    comm.iput(2, 1, off);
    comm.accumulate(1, 1, off, rma::AccumOp::kSum);
    comm.iaccumulate(1, 1, off, rma::AccumOp::kSum);
    comm.fao(1, 1, off, rma::AccumOp::kSum);
    comm.cas(0, 5, 1, off);
    comm.get(1, off);
    comm.flush(1);
    const Nanos deadline = comm.now_ns() + 1'000'000;
    comm.try_get(1, off, deadline);
    comm.try_cas(0, 6, 1, off, deadline);
    i64 words[3] = {};
    comm.get_vec(1, off, words, 3);
  });
  EXPECT_EQ(tracer.count(EventCode::kRmaOp), 7u);
  EXPECT_EQ(tracer.count(EventCode::kTryTimeout), 0u);
}

TEST(SimWorldTrace, SpansNestPerRank) {
  // Chrome B/E events must nest per tid: on every rank, the acquire span
  // closes before the critical-section span opens, and B/E alternate.
  Tracer tracer(4);
  rma::SimOptions opts;
  opts.topology = topo::Topology::uniform({2}, 2);
  opts.seed = 3;
  opts.tracer = &tracer;
  auto world = rma::SimWorld::create(opts);
  locks::RmaMcs lock(*world);
  world->run([&](rma::RmaComm& comm) {
    lock.acquire(comm);
    lock.release(comm);
  });
  for (i32 r = 0; r < 4; ++r) {
    i32 depth = 0;
    for (const Event& e : tracer.ring(r).snapshot()) {
      if (e.phase == Phase::kBegin) {
        ++depth;
        EXPECT_LE(depth, 1) << "rank " << r << " seq " << e.seq
                            << ": overlapping spans";
      } else if (e.phase == Phase::kEnd) {
        --depth;
        EXPECT_GE(depth, 0) << "rank " << r << " seq " << e.seq
                            << ": E without B";
      }
    }
    EXPECT_EQ(depth, 0) << "rank " << r << ": unclosed span";
  }
}

}  // namespace
}  // namespace rmalock::obs
