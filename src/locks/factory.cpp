#include "locks/factory.hpp"

#include "locks/d_mcs.hpp"
#include "locks/fompi_rw.hpp"
#include "locks/fompi_spin.hpp"
#include "locks/lease.hpp"
#include "locks/rma_mcs.hpp"
#include "locks/rma_rw.hpp"

namespace rmalock::locks {

namespace {

[[nodiscard]] Rank resolve_home(Rank home) { return home < 0 ? 0 : home; }

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kFompiSpin: return "fompi-spin";
    case Backend::kDMcs: return "d-mcs";
    case Backend::kRmaMcs: return "rma-mcs";
    case Backend::kDTree: return "dtree";
    case Backend::kFompiRw: return "fompi-rw";
    case Backend::kRmaRw: return "rma-rw";
    case Backend::kLeaseMcs: return "lease-mcs";
    case Backend::kLeaseRw: return "lease-rw";
  }
  return "?";
}

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> kAll = {
      Backend::kFompiSpin, Backend::kDMcs,  Backend::kRmaMcs,
      Backend::kDTree,     Backend::kFompiRw, Backend::kRmaRw,
      Backend::kLeaseMcs,  Backend::kLeaseRw};
  return kAll;
}

std::unique_ptr<ExclusiveLock> make_exclusive(Backend b, rma::World& world,
                                              Rank home) {
  switch (b) {
    case Backend::kFompiSpin:
      return std::make_unique<FompiSpin>(world, resolve_home(home));
    case Backend::kDMcs:
      return std::make_unique<DMcs>(world, resolve_home(home));
    case Backend::kRmaMcs:
      return std::make_unique<RmaMcs>(world);
    case Backend::kDTree: {
      // The bare tree is RMA-MCS with every T_L,q = 1: at most one local
      // pass per element before the lock moves up, so releases mostly take
      // the release-upward path RMA-MCS reaches only after T_L,q passes.
      RmaMcsParams params;
      params.locality.assign(
          static_cast<usize>(world.topology().num_levels()), 1);
      return std::make_unique<RmaMcs>(world, std::move(params));
    }
    case Backend::kFompiRw:
    case Backend::kRmaRw:
      return make_rw(b, world, home);
    case Backend::kLeaseMcs:
    case Backend::kLeaseRw: {
      // Inner lock first, then the lease word: the footprint is the inner
      // lock's plus one word (docs/DESIGN.md §3).
      auto inner = make_exclusive(
          b == Backend::kLeaseMcs ? Backend::kRmaMcs : Backend::kRmaRw, world,
          home);
      LeaseParams params;
      params.home = resolve_home(home);
      return std::make_unique<LeaseExclusive>(world, std::move(inner), params);
    }
  }
  return nullptr;
}

std::unique_ptr<RwLock> make_rw(Backend b, rma::World& world, Rank home) {
  switch (b) {
    case Backend::kFompiRw:
      return std::make_unique<FompiRw>(world, resolve_home(home));
    case Backend::kRmaRw: {
      RmaRwParams params = RmaRwParams::defaults(world.topology());
      params.home = resolve_home(home);
      return std::make_unique<RmaRw>(world, std::move(params));
    }
    default:
      return nullptr;
  }
}

}  // namespace rmalock::locks
