#include "topo/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace rmalock::topo {
namespace {

TEST(Topology, SingleNode) {
  const Topology t = Topology::uniform({}, 16);
  EXPECT_EQ(t.num_levels(), 1);
  EXPECT_EQ(t.num_elements(1), 1);
  EXPECT_EQ(t.nprocs(), 16);
  EXPECT_EQ(t.procs_per_leaf(), 16);
  for (Rank r = 0; r < 16; ++r) {
    EXPECT_EQ(t.element_of(r, 1), 0);
  }
}

TEST(Topology, TwoLevelPaperModel) {
  // §5 "Machine Model": machine + compute nodes, 16 procs/node.
  const Topology t = Topology::nodes(4, 16);
  EXPECT_EQ(t.num_levels(), 2);
  EXPECT_EQ(t.num_elements(1), 1);
  EXPECT_EQ(t.num_elements(2), 4);
  EXPECT_EQ(t.nprocs(), 64);
  EXPECT_EQ(t.procs_per_element(2), 16);
  EXPECT_EQ(t.element_of(0, 2), 0);
  EXPECT_EQ(t.element_of(15, 2), 0);
  EXPECT_EQ(t.element_of(16, 2), 1);
  EXPECT_EQ(t.element_of(63, 2), 3);
}

TEST(Topology, ThreeLevelFigure2Model) {
  // Figure 2: 1 machine, 2 racks, 4 nodes (2 per rack).
  const Topology t = Topology::uniform({2, 2}, 6);
  EXPECT_EQ(t.num_levels(), 3);
  EXPECT_EQ(t.num_elements(1), 1);
  EXPECT_EQ(t.num_elements(2), 2);
  EXPECT_EQ(t.num_elements(3), 4);
  EXPECT_EQ(t.nprocs(), 24);
  // Rank 13 is in node 2 (ranks 12..17) which is in rack 1.
  EXPECT_EQ(t.element_of(13, 3), 2);
  EXPECT_EQ(t.element_of(13, 2), 1);
  EXPECT_EQ(t.element_of(13, 1), 0);
}

TEST(Topology, RepRankIsFirstOfElement) {
  const Topology t = Topology::uniform({2, 2}, 6);
  EXPECT_EQ(t.rep_rank(3, 0), 0);
  EXPECT_EQ(t.rep_rank(3, 1), 6);
  EXPECT_EQ(t.rep_rank(3, 3), 18);
  EXPECT_EQ(t.rep_rank(2, 1), 12);
  EXPECT_EQ(t.rep_rank(1, 0), 0);
}

TEST(Topology, RankRange) {
  const Topology t = Topology::uniform({2, 2}, 6);
  const auto [lo, hi] = t.rank_range(3, 2);
  EXPECT_EQ(lo, 12);
  EXPECT_EQ(hi, 18);
  const auto [mlo, mhi] = t.rank_range(1, 0);
  EXPECT_EQ(mlo, 0);
  EXPECT_EQ(mhi, 24);
}

TEST(Topology, CommonLevel) {
  const Topology t = Topology::uniform({2, 2}, 6);
  EXPECT_EQ(t.common_level(0, 5), 3);    // same node
  EXPECT_EQ(t.common_level(0, 6), 2);    // same rack, different node
  EXPECT_EQ(t.common_level(0, 13), 1);   // different racks
  EXPECT_EQ(t.common_level(12, 18), 2);  // rack 1 internal
  EXPECT_TRUE(t.same_leaf(0, 5));
  EXPECT_FALSE(t.same_leaf(0, 6));
}

TEST(Topology, CommonLevelIsSymmetric) {
  const Topology t = Topology::uniform({2, 3}, 4);
  for (Rank a = 0; a < t.nprocs(); ++a) {
    for (Rank b = 0; b < t.nprocs(); ++b) {
      EXPECT_EQ(t.common_level(a, b), t.common_level(b, a));
    }
  }
}

TEST(Topology, ElementOfIsConsistentWithRankRange) {
  const Topology t = Topology::uniform({2, 2, 2}, 3);
  for (i32 level = 1; level <= t.num_levels(); ++level) {
    for (i32 elem = 0; elem < t.num_elements(level); ++elem) {
      const auto [lo, hi] = t.rank_range(level, elem);
      for (Rank r = lo; r < hi; ++r) {
        EXPECT_EQ(t.element_of(r, level), elem);
      }
    }
  }
}

TEST(Topology, CounterHostFormula) {
  const Topology t = Topology::nodes(4, 8);  // 32 procs
  // Home 0 is §3.2.1's placement: c(p) = ⌊p / T_DC⌋ · T_DC.
  EXPECT_EQ(t.counter_host(0, 4, 0), 0);
  EXPECT_EQ(t.counter_host(3, 4, 0), 0);
  EXPECT_EQ(t.counter_host(4, 4, 0), 4);
  EXPECT_EQ(t.counter_host(11, 4, 0), 8);
  EXPECT_EQ(t.counter_host(7, 1, 0), 7);  // one counter per process
  // Home h puts the counter at offset h mod T_DC inside every group.
  EXPECT_EQ(t.counter_host(0, 4, 3), 3);
  EXPECT_EQ(t.counter_host(3, 4, 3), 3);
  EXPECT_EQ(t.counter_host(11, 4, 5), 9);    // 5 mod 4 = 1, group [8, 12)
  EXPECT_EQ(t.counter_host(7, 1, 6), 7);     // T_DC = 1: always p itself
  EXPECT_EQ(t.counter_host(20, 8, 13), 21);  // 13 mod 8 = 5, group [16, 24)
  // T_DC = 3: ten full groups and the partial group {30, 31}, where an
  // offset past the group's end clamps to its last rank.
  EXPECT_EQ(t.counter_host(31, 3, 0), 30);
  EXPECT_EQ(t.counter_host(31, 3, 1), 31);
  EXPECT_EQ(t.counter_host(30, 3, 2), 31);
  EXPECT_EQ(t.counter_host(29, 3, 2), 29);  // full groups are unaffected
}

TEST(Topology, CounterHostsEveryTdcThProcess) {
  const Topology t = Topology::nodes(4, 8);  // 32 procs
  const auto hosts = t.counter_hosts(8, 0);  // one per node
  ASSERT_EQ(hosts.size(), 4u);
  EXPECT_EQ(hosts[0], 0);
  EXPECT_EQ(hosts[1], 8);
  EXPECT_EQ(hosts[3], 24);
  // T_DC = 2*ppn: every second node (paper's topology-aware placement).
  const auto sparse = t.counter_hosts(16, 0);
  ASSERT_EQ(sparse.size(), 2u);
  EXPECT_EQ(sparse[1], 16);
  // A home rotates the host inside every group by the same offset.
  EXPECT_EQ(t.counter_hosts(8, 3), (std::vector<Rank>{3, 11, 19, 27}));
  EXPECT_EQ(t.counter_hosts(16, 21), (std::vector<Rank>{5, 21}));
  // T_DC = 3, home 2: the partial last group {30, 31} clamps to 31.
  const auto clamped = t.counter_hosts(3, 2);
  ASSERT_EQ(clamped.size(), 11u);
  EXPECT_EQ(clamped[9], 29);
  EXPECT_EQ(clamped[10], 31);
}

TEST(Topology, CounterHostCoversAllProcs) {
  const Topology t = Topology::nodes(4, 8);
  for (const i32 tdc : {1, 2, 3, 8, 16, 32}) {
    for (const Rank home : {0, 1, 2, 7, 31}) {
      const auto hosts = t.counter_hosts(tdc, home);
      for (Rank p = 0; p < t.nprocs(); ++p) {
        const Rank c = t.counter_host(p, tdc, home);
        SCOPED_TRACE(testing::Message()
                     << "tdc=" << tdc << " home=" << home << " p=" << p);
        // Home 0 is the paper's group-leader placement.
        if (home == 0) {
          EXPECT_EQ(c % tdc, 0);
        }
        // Offset home mod T_DC inside p's group, clamped to the last rank.
        EXPECT_EQ(c, std::min(p / tdc * tdc + home % tdc, t.nprocs() - 1));
        // The host is in p's own group and is one of the enumerated
        // counters.
        EXPECT_EQ(c / tdc, p / tdc);
        EXPECT_NE(std::find(hosts.begin(), hosts.end(), c), hosts.end());
      }
    }
  }
}

TEST(Topology, Parse) {
  const Topology a = Topology::parse("4x16");
  EXPECT_EQ(a.num_levels(), 2);
  EXPECT_EQ(a.nprocs(), 64);
  const Topology b = Topology::parse("2x4x16");
  EXPECT_EQ(b.num_levels(), 3);
  EXPECT_EQ(b.nprocs(), 128);
  const Topology c = Topology::parse("8");
  EXPECT_EQ(c.num_levels(), 1);
  EXPECT_EQ(c.nprocs(), 8);
}

TEST(Topology, ParseRoundTripsUniform) {
  EXPECT_EQ(Topology::parse("2x4x16"), Topology::uniform({2, 4}, 16));
  EXPECT_EQ(Topology::parse("16"), Topology::uniform({}, 16));
}

TEST(Topology, DiscoverUsesEnvironment) {
  ::setenv("RMALOCK_TOPO", "2x8", 1);
  const Topology t = Topology::discover(4);
  EXPECT_EQ(t.nprocs(), 16);
  EXPECT_EQ(t.num_levels(), 2);
  ::unsetenv("RMALOCK_TOPO");
  const Topology fallback = Topology::discover(4);
  EXPECT_EQ(fallback.nprocs(), 4);
  EXPECT_EQ(fallback.num_levels(), 1);
}

TEST(Topology, DescribeMentionsShape) {
  const std::string desc = Topology::uniform({2, 4}, 16).describe();
  EXPECT_NE(desc.find("N=3"), std::string::npos);
  EXPECT_NE(desc.find("P=128"), std::string::npos);
}

TEST(Topology, DefaultIsTrivial) {
  const Topology t;
  EXPECT_EQ(t.num_levels(), 1);
  EXPECT_EQ(t.nprocs(), 1);
}

TEST(TopologyDeathTest, RejectsBadSpecs) {
  EXPECT_DEATH(Topology::uniform({0}, 4), "fanout");
  EXPECT_DEATH(Topology::uniform({2}, 0), "procs_per_leaf");
  EXPECT_DEATH(Topology::parse(""), "topology spec");
}

// Parameterized sanity over a family of shapes (N = 1..4).
class TopologyShapes : public ::testing::TestWithParam<std::vector<i32>> {};

TEST_P(TopologyShapes, InvariantsHold) {
  const auto fanouts = GetParam();
  const Topology t = Topology::uniform(fanouts, 4);
  const i32 n = t.num_levels();
  EXPECT_EQ(n, static_cast<i32>(fanouts.size()) + 1);
  EXPECT_EQ(t.num_elements(1), 1);
  i32 expected = 1;
  for (i32 level = 2; level <= n; ++level) {
    expected *= fanouts[static_cast<usize>(level - 2)];
    EXPECT_EQ(t.num_elements(level), expected);
    EXPECT_EQ(t.num_elements(level) * t.procs_per_element(level), t.nprocs());
  }
  // Elements at deeper levels refine elements at shallower levels.
  for (Rank r = 0; r < t.nprocs(); ++r) {
    for (i32 level = 2; level <= n; ++level) {
      const auto [lo, hi] = t.rank_range(level, t.element_of(r, level));
      const auto [plo, phi] = t.rank_range(level - 1, t.element_of(r, level - 1));
      EXPECT_GE(lo, plo);
      EXPECT_LE(hi, phi);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TopologyShapes,
                         ::testing::Values(std::vector<i32>{},
                                           std::vector<i32>{2},
                                           std::vector<i32>{4},
                                           std::vector<i32>{2, 2},
                                           std::vector<i32>{2, 3},
                                           std::vector<i32>{3, 2},
                                           std::vector<i32>{2, 2, 2},
                                           std::vector<i32>{4, 2, 3}));

}  // namespace
}  // namespace rmalock::topo
