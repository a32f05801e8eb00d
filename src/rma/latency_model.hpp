// Network cost model for the virtual-time runtime.
//
// The model captures the three effects that determine distributed-lock
// performance on a real machine (§1, §5 of the paper):
//
//  1. distance — an op's latency depends on the deepest machine element the
//     origin and target share (same node ≪ same rack ≪ cross machine);
//  2. op class — remote atomics (FAO/CAS/Accumulate) are more expensive than
//     RDMA put/get (Schweizer et al. [43] measure ~2x on Aries);
//  3. contention — a hot target rank serializes incoming ops in its NIC;
//     queueing delay, not wire latency, is what ruins centralized locks.
//
// Costs are indexed by *distance class* (see op_stats.hpp): 0 = self,
// 1 = same leaf/compute node, ..., N = crosses the top level. A blocking op
// charges its full end-to-end latency at issue time: the caller waits for
// it, so folding completion into the op keeps virtual time faithful while
// making Flush cheap. `occupancy` is the time the op holds a NIC;
// concurrent ops to one rank queue behind each other in the target's NIC,
// which is how contention emerges.
//
// Nonblocking (pipelined) issue — iput, iaccumulate and iget — charges the
// cost in two halves: at issue the origin pays only its own injection slot
// — modeled as the op's occupancy, since origin and target NICs serve at
// the same rate — while the request travels (cost/2), queues in the target
// NIC (occupancy), and completes; the next flush(target) advances the
// origin to max(clock + flush_ns, completion + cost/2) — flush_ns is
// absorbed whenever the acknowledgement (completion + return trip)
// dominates. C overlapped puts to C distinct targets therefore cost
// ~1 RTT + C * occupancy instead of C RTTs, and two igets at one target
// ~1 RTT + 2 * occupancy instead of 2 RTTs (docs/PERF.md derives this).
//
// Default magnitudes are calibrated to published Cray XC30 / Aries numbers
// (foMPI paper, Fig. 5-7: inter-node put/get ~1 µs, remote atomics ~2 µs,
// intra-node shared-memory ops ~0.1-0.3 µs).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "rma/op.hpp"

namespace rmalock::rma {

struct LatencyModel {
  /// rma_ns[d]: end-to-end latency of Put/Get at distance class d.
  std::vector<Nanos> rma_ns;
  /// atomic_ns[d]: end-to-end latency of FAO/CAS/Accumulate at class d.
  std::vector<Nanos> atomic_ns;
  /// rma_occupancy_ns[d]: target-side service time of a Put/Get. The RDMA
  /// engine pipelines reads/writes, so this is small.
  std::vector<Nanos> rma_occupancy_ns;
  /// atomic_occupancy_ns[d]: target-side service time of an atomic. AMOs
  /// serialize in the NIC's atomic unit — several times slower than the
  /// pipelined put/get path (the measured Aries behaviour [43]); this gap
  /// is why centralized atomic-word locks collapse under contention while
  /// plain-get readers keep streaming.
  std::vector<Nanos> atomic_occupancy_ns;
  /// Cost of Flush (completion bookkeeping only; see header comment).
  Nanos flush_ns = 10;

  [[nodiscard]] Nanos op_cost(OpKind kind, i32 dclass) const {
    const auto d = static_cast<usize>(dclass);
    if (kind == OpKind::kFlush) return flush_ns;
    return is_atomic_op(kind) ? atomic_ns[d] : rma_ns[d];
  }

  [[nodiscard]] Nanos occupancy(OpKind kind, i32 dclass) const {
    const auto d = static_cast<usize>(dclass);
    return is_atomic_op(kind) ? atomic_occupancy_ns[d] : rma_occupancy_ns[d];
  }

  [[nodiscard]] i32 num_distance_classes() const {
    return static_cast<i32>(rma_ns.size()) - 1;
  }

  /// Cray XC30-like model for a machine with `num_levels` levels.
  /// Classes: 0 self, 1 same node, 2..N increasingly remote network hops
  /// (Dragonfly: group-local vs global links).
  static LatencyModel xc30(i32 num_levels) {
    LatencyModel m;
    const auto classes = static_cast<usize>(num_levels) + 1;
    m.rma_ns.resize(classes);
    m.atomic_ns.resize(classes);
    m.rma_occupancy_ns.resize(classes);
    m.atomic_occupancy_ns.resize(classes);
    for (usize d = 0; d < classes; ++d) {
      switch (d) {
        case 0:  // self: local load/store through the RMA layer
          m.rma_ns[d] = 35;
          m.atomic_ns[d] = 70;
          m.rma_occupancy_ns[d] = 5;
          m.atomic_occupancy_ns[d] = 12;
          break;
        case 1:  // same compute node: XPMEM-style shared memory path
          m.rma_ns[d] = 250;
          m.atomic_ns[d] = 450;
          m.rma_occupancy_ns[d] = 25;
          m.atomic_occupancy_ns[d] = 60;
          break;
        case 2:  // one network level (e.g., node-to-node in a group)
          m.rma_ns[d] = 1100;
          m.atomic_ns[d] = 2100;
          m.rma_occupancy_ns[d] = 40;
          // Aries serializes network AMOs in the NIC atomic unit: the
          // aggregate rate into one node is ~2-3 M AMO/s regardless of
          // origin count — an order below the put/get message rate.
          m.atomic_occupancy_ns[d] = 400;
          break;
        default:  // further levels: global Dragonfly links
          m.rma_ns[d] = 1100 + 500 * static_cast<Nanos>(d - 2);
          m.atomic_ns[d] = 2100 + 900 * static_cast<Nanos>(d - 2);
          m.rma_occupancy_ns[d] = 40 + 10 * static_cast<Nanos>(d - 2);
          m.atomic_occupancy_ns[d] = 400 + 50 * static_cast<Nanos>(d - 2);
          break;
      }
    }
    m.flush_ns = 10;
    return m;
  }

  /// Topology-oblivious model for ablations: every non-self access costs
  /// the same as the farthest class of xc30. Removes the locality advantage
  /// while keeping contention, isolating what topology-awareness buys.
  static LatencyModel flat(i32 num_levels) {
    LatencyModel m = xc30(num_levels);
    const usize last = m.rma_ns.size() - 1;
    for (usize d = 1; d < m.rma_ns.size(); ++d) {
      m.rma_ns[d] = m.rma_ns[last];
      m.atomic_ns[d] = m.atomic_ns[last];
      m.rma_occupancy_ns[d] = m.rma_occupancy_ns[last];
      m.atomic_occupancy_ns[d] = m.atomic_occupancy_ns[last];
    }
    return m;
  }

  /// Free network for functional tests: virtual time advances by 1 ns per
  /// op so schedules stay well-ordered but costs never dominate a test.
  static LatencyModel zero(i32 num_levels) {
    LatencyModel m;
    const auto classes = static_cast<usize>(num_levels) + 1;
    m.rma_ns.assign(classes, 1);
    m.atomic_ns.assign(classes, 1);
    m.rma_occupancy_ns.assign(classes, 0);
    m.atomic_occupancy_ns.assign(classes, 0);
    m.flush_ns = 1;
    return m;
  }
};

}  // namespace rmalock::rma
