// Central lock factory — one name per backend, one construction path.
//
// Before LockSpace, every harness that needed "a lock of kind X" grew its
// own switch (the conformance matrix, the MC workload registry, the figure
// benches). LockSpace multiplexes thousands of lock instances and needs the
// same choice as data, so the switch lives here once: a Backend enum, its
// names for JSON records, and make_exclusive / make_rw constructors that
// accept an optional home rank.
//
// Home semantics: the centralized protocols (foMPI-Spin, foMPI-RW) host
// their single lock word on `home`; D-MCS hosts its tail pointer there;
// the lease backends host their lease word there. RMA-RW keeps one counter
// per T_DC group and puts it at offset home mod T_DC inside every group
// (RmaRwParams::home). The queue trees of RMA-MCS, DTree and RMA-RW sit on
// the machine's representative ranks by construction — their placement
// *is* the topology — so `home` does not move them.
#pragma once

#include <memory>
#include <vector>

#include "locks/lock.hpp"
#include "rma/world.hpp"

namespace rmalock::locks {

enum class Backend : u8 {
  kFompiSpin,  // centralized TTS spinlock (exclusive)
  kDMcs,       // distributed MCS queue (exclusive)
  kRmaMcs,     // topology-aware MCS (exclusive)
  kDTree,      // the bare DistributedTree: RMA-MCS with every T_L,q = 1
  kFompiRw,    // centralized reader-writer (rw)
  kRmaRw,      // topology-aware reader-writer (rw)
  kLeaseMcs,   // LeaseExclusive over RMA-MCS (crash recovery; exclusive)
  kLeaseRw,    // LeaseExclusive over RMA-RW writer mode (crash recovery)
};

/// True iff the backend implements the RwLock interface (reader
/// concurrency); the others are exclusive-only.
[[nodiscard]] constexpr bool backend_is_rw(Backend b) {
  return b == Backend::kFompiRw || b == Backend::kRmaRw;
}

/// Stable identifier, e.g. "rma-rw" — used in bench series names, CLI
/// flags, and MC workload ids.
[[nodiscard]] const char* backend_name(Backend b);

/// All backends, in declaration order (test matrices iterate this).
[[nodiscard]] const std::vector<Backend>& all_backends();

/// Collective: constructs one lock of the given backend. Every backend is
/// an exclusive lock; the RW backends return the RwLock itself, so callers
/// that want shared mode dynamic_cast to RwLock. `home` as documented
/// above; kNilRank = rank 0 for the centralized protocols.
std::unique_ptr<ExclusiveLock> make_exclusive(Backend b, rma::World& world,
                                              Rank home = kNilRank);

/// Collective: constructs one reader-writer lock. Exclusive-only backends
/// return nullptr — callers that need shared mode must check
/// backend_is_rw() first.
std::unique_ptr<RwLock> make_rw(Backend b, rma::World& world,
                                Rank home = kNilRank);

}  // namespace rmalock::locks
