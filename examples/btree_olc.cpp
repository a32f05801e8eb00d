// B-tree traversal with optimistic lock coupling over a LockSpace.
//
// Classic lock coupling walks root -> leaf holding one read lock per node
// (take the child's lock, then drop the parent's) — every traversal pays a
// lock acquisition per level even when nothing changes. Optimistic lock
// coupling replaces the read locks with versioned snapshots: each node is
// one named lock in a payload-capable LockSpace, readers descend with
// optimistic_read (snapshot the node, validate its version), and only
// writers take the per-node write lock. A reader that races a writer
// simply retries that node (or falls back to the read lock after
// LockSpace::kOptimisticRetries retries) — it can never act on a torn
// node image, because the version validation rejects any snapshot that
// overlapped a write session.
//
// The tree here is a complete 4-ary search tree of depth 3 (1 root, 4
// inner nodes, 16 leaves = 21 nodes, one LockSpace key each). Writers
// rewrite whole leaves: every payload word is stamped with the leaf's next
// generation, so a reader can audit each snapshot it returns — all words
// equal means a consistent image; mixed generations would mean a torn read
// slipped through validation. The example runs the same lookup mix under
// both regimes and reports throughput, optimistic retries/fallbacks, and
// the torn-snapshot count (which must be 0).
#include <cstdio>

#include "lockspace/lockspace.hpp"
#include "rma/sim_world.hpp"

using namespace rmalock;

namespace {

constexpr i32 kFanout = 4;
constexpr u64 kRootId = 0;                       // node ids are LockSpace keys
constexpr u64 kInnerBase = 1;                    // 4 inner nodes: 1..4
constexpr u64 kLeafBase = 1 + kFanout;           // 16 leaves: 5..20
constexpr i32 kKeySpace = kFanout * kFanout * kFanout;  // 64 tree keys
constexpr i32 kPayloadWords = 4;                 // words per node image
constexpr i32 kOpsPerProc = 200;
constexpr double kWriteFraction = 0.10;

u64 inner_of(i32 tree_key) {
  return kInnerBase + static_cast<u64>(tree_key / (kFanout * kFanout));
}
u64 leaf_of(i32 tree_key) {
  return kLeafBase + static_cast<u64>(tree_key / kFanout);
}

struct Tally {
  u64 lookups = 0;
  u64 updates = 0;
  u64 retries = 0;
  u64 fallbacks = 0;
  u64 torn_snapshots = 0;  // must stay 0: validation rejects torn images
};

double run_tree(const char* name, bool optimistic, Tally* out) {
  rma::SimOptions options;
  options.topology = topo::Topology::parse("2x8");
  options.seed = 11;
  auto world = rma::SimWorld::create(options);

  lockspace::LockSpaceConfig config;
  config.backend = locks::Backend::kRmaRw;
  config.payload_words = kPayloadWords;
  lockspace::LockSpace space(*world, config);

  std::vector<Tally> tallies(static_cast<usize>(world->nprocs()));
  std::vector<Nanos> finish(static_cast<usize>(world->nprocs()));
  world->run([&](rma::RmaComm& comm) {
    Tally& me = tallies[static_cast<usize>(comm.rank())];
    std::vector<i64> node(kPayloadWords, 0);

    // One descent step: snapshot a node image, audit its consistency.
    const auto read_node = [&](u64 id) {
      if (optimistic) {
        const lockspace::LockSpace::OptimisticResult r =
            space.optimistic_read(comm, id, node.data(), node.size());
        me.retries += r.retries;
        if (r.fell_back) ++me.fallbacks;
      } else {
        space.locked_read(comm, id, node.data(), node.size());
      }
      for (usize w = 1; w < node.size(); ++w) {
        if (node[w] != node[0]) {
          ++me.torn_snapshots;
          break;
        }
      }
    };

    comm.barrier();
    for (i32 i = 0; i < kOpsPerProc; ++i) {
      const i32 tree_key =
          static_cast<i32>(comm.rng().below(static_cast<u64>(kKeySpace)));
      const u64 leaf = leaf_of(tree_key);
      if (comm.rng().uniform() < kWriteFraction) {
        // Leaf rewrite: whole image stamped with the leaf's next
        // generation, serialized by the leaf's write lock.
        space.acquire(comm, leaf);
        const i64 gen = space.payload_version(comm, leaf) / 2 + 1;
        std::vector<i64> image(kPayloadWords, gen);
        space.write_payload(comm, leaf, image.data(), image.size());
        space.release(comm, leaf);
        ++me.updates;
      } else {
        // Root -> inner -> leaf descent; in a real B-tree the inner
        // snapshots would steer the child choice, here the route is
        // arithmetic and the snapshots are audited instead.
        read_node(kRootId);
        read_node(inner_of(tree_key));
        read_node(leaf);
        ++me.lookups;
      }
    }
    comm.barrier();
    finish[static_cast<usize>(comm.rank())] = comm.now_ns();
  });

  Tally total;
  for (const Tally& t : tallies) {
    total.lookups += t.lookups;
    total.updates += t.updates;
    total.retries += t.retries;
    total.fallbacks += t.fallbacks;
    total.torn_snapshots += t.torn_snapshots;
  }
  const double ms = static_cast<double>(finish[0]) / 1e6;
  std::printf("%-26s %9.3f ms   %6llu lookups  %5llu updates",
              name, ms, static_cast<unsigned long long>(total.lookups),
              static_cast<unsigned long long>(total.updates));
  if (optimistic) {
    std::printf("   %4llu retries  %3llu fallbacks",
                static_cast<unsigned long long>(total.retries),
                static_cast<unsigned long long>(total.fallbacks));
  }
  std::printf("\n");
  if (out != nullptr) *out = total;
  return ms;
}

}  // namespace

int main() {
  std::printf("4-ary search tree, depth 3 (21 nodes), 16 processes x %d "
              "ops, %.0f%% leaf rewrites\n\n",
              kOpsPerProc, kWriteFraction * 100);
  Tally locked;
  Tally olc;
  const double lock_ms =
      run_tree("read-lock coupling", /*optimistic=*/false, &locked);
  const double olc_ms =
      run_tree("optimistic lock coupling", /*optimistic=*/true, &olc);
  std::printf("\noptimistic vs locked descent: %.2fx faster\n",
              lock_ms / olc_ms);
  std::printf("torn snapshots observed: %llu (locked) + %llu (optimistic) "
              "— version validation must keep both at 0\n",
              static_cast<unsigned long long>(locked.torn_snapshots),
              static_cast<unsigned long long>(olc.torn_snapshots));
  return (locked.torn_snapshots == 0 && olc.torn_snapshots == 0) ? 0 : 1;
}
