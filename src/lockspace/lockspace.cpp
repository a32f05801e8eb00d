#include "lockspace/lockspace.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/check.hpp"
#include "locks/lease.hpp"

namespace rmalock::lockspace {

LockSpace::LockSpace(rma::World& world, LockSpaceConfig config)
    : world_(world), config_(config) {
  const topo::Topology& topo = world.topology();
  num_shards_ = config_.shards > 0
                    ? config_.shards
                    : topo.num_elements(topo.num_levels());
  RMALOCK_CHECK_MSG(num_shards_ >= 1, "LockSpace needs >= 1 shard");
  RMALOCK_CHECK_MSG(config_.slots_per_shard >= 1,
                    "LockSpace needs >= 1 slot per shard");
  RMALOCK_CHECK_MSG(config_.rehome_epochs >= 0 && config_.quarantine_after >= 0,
                    "LockSpace health knobs must be non-negative");
  RMALOCK_CHECK_MSG(config_.rehome_epochs == 0 || !rw_capable(),
                    "re-homing supports exclusive backends only (the "
                    "migration fence covers one grant path)");

  shards_.reserve(static_cast<usize>(num_shards_));
  for (i32 s = 0; s < num_shards_; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->home = home_of_slot(s, /*slot=*/0, /*plane=*/0);
    shards_.push_back(std::move(shard));
  }
  const usize ctl_words = rehoming() ? static_cast<usize>(num_shards_) : 0;
  if (config_.payload_words > 0) {
    payload_stride_ = 1 + static_cast<usize>(config_.payload_words);
  }
  const usize payload_words =
      payload_stride_ * static_cast<usize>(total_slots());
  const u32 spp = static_cast<u32>(config_.slots_per_shard);

  // Build every slot, plane by plane and global slot ascending (the
  // slot_index order). Every instance of one backend allocates the same
  // footprint W (it depends only on the topology), so slot (plane p, gs)
  // occupies W words from base + (p * total_slots + gs) * W. The first
  // instance measures W; the world then reserves the rest of the grid and
  // the control and payload words below in one step.
  slots_ = std::vector<Slot>(static_cast<usize>(total_slots()) *
                             static_cast<usize>(planes()));
  const usize base = world.window_words();
  for (usize i = 0; i < slots_.size(); ++i) {
    const i32 plane = static_cast<i32>(i / total_slots());
    const u32 gs = static_cast<u32>(i % total_slots());
    const Rank home = home_of_slot(static_cast<i32>(gs / spp),
                                   static_cast<i32>(gs % spp), plane);
    Slot& slot = slots_[i];
    slot.ex = locks::make_exclusive(config_.backend, world, home);
    slot.rw = dynamic_cast<locks::RwLock*>(slot.ex.get());
    slot.lease = dynamic_cast<locks::LeaseExclusive*>(slot.ex.get());
    if (i == 0) {
      words_per_slot_ = world.window_words() - base;
      world.reserve(base + words_per_slot_ * slots_.size() + ctl_words +
                    payload_words);
    }
  }

  // Per-shard migration control words, hosted on rank 0 (the directory
  // keeper): (epoch << 1) | migrating, starting quiescent at epoch 0.
  if (rehoming()) {
    rehome_ctl_base_ = world.allocate(ctl_words);
    holds_.resize(static_cast<usize>(world.nprocs()));
  }

  // Versioned-payload arena, allocated after the slot grid so backend
  // footprints are unaffected. Fresh window words are zero, so every
  // version starts even-quiescent.
  if (config_.payload_words > 0) {
    payload_base_ = world.allocate(payload_words);
  }
}

LockRef LockSpace::resolve(u64 key) const {
  // Two independent SplitMix64 draws decorrelate the shard choice from the
  // slot choice (a single draw's low bits would make slot collide whenever
  // shard does).
  u64 state = key;
  const u64 h_shard = splitmix64(state);
  const u64 h_slot = splitmix64(state);
  LockRef ref;
  ref.shard = static_cast<i32>(h_shard % static_cast<u64>(num_shards_));
  ref.slot =
      static_cast<i32>(h_slot % static_cast<u64>(config_.slots_per_shard));
  ref.home = shards_[static_cast<usize>(ref.shard)]->home;
  ref.global_slot = static_cast<u32>(ref.shard) *
                        static_cast<u32>(config_.slots_per_shard) +
                    static_cast<u32>(ref.slot);
  return ref;
}

Rank LockSpace::home_of_shard(i32 shard) const {
  return shards_[static_cast<usize>(shard)]->home;
}

Rank LockSpace::home_of_slot(i32 shard, i32 slot, i32 plane) const {
  RMALOCK_CHECK(plane >= 0 && plane < planes());
  // Leaf-major spread: consecutive shards land on distinct leaves first
  // (balancing per-NIC lock-word traffic across nodes), then cycle through
  // the ranks inside each leaf. The migration epoch rotates the leaf, so
  // each rehome moves the shard to the next leaf, by construction a
  // different node whenever the machine has more than one. Slot j sits j
  // ranks past the shard home, wrapping inside the leaf.
  const topo::Topology& topo = world_.topology();
  const i32 leaves = topo.num_elements(topo.num_levels());
  const i32 ppl = topo.procs_per_leaf();
  const i32 leaf = (shard % leaves + plane) % leaves;
  return leaf * ppl + ((shard / leaves) % ppl + slot) % ppl;
}

std::vector<u64> LockSpace::distinct_slot_keys(i32 count) const {
  RMALOCK_CHECK_MSG(static_cast<u32>(count) <= total_slots(),
                    "cannot pick " << count << " cross-slot keys from "
                                   << total_slots() << " slots");
  std::vector<u64> keys;
  std::vector<u32> slots;
  for (u64 key = 0; static_cast<i32>(keys.size()) < count; ++key) {
    const u32 slot = resolve(key).global_slot;
    if (std::find(slots.begin(), slots.end(), slot) != slots.end()) continue;
    keys.push_back(key);
    slots.push_back(slot);
  }
  return keys;
}

LockSpace::Slot& LockSpace::use_slot(const LockRef& ref, i32 plane) {
  Slot& slot = slots_[slot_index(plane, ref.global_slot)];
  if (!slot.used.load(std::memory_order_relaxed)) {
    slot.used.store(true, std::memory_order_release);
  }
  return slot;
}

i64 LockSpace::read_ctl(rma::RmaComm& comm, i32 shard) const {
  const i64 ctl = comm.get(0, ctl_offset(shard));
  comm.flush(0);
  return ctl;
}

void LockSpace::record_timeout(i32 shard_index) {
  Shard& shard = *shards_[static_cast<usize>(shard_index)];
  shard.timeouts.fetch_add(1, std::memory_order_relaxed);
  const i32 consec =
      shard.consec_timeouts.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.quarantine_after > 0 && consec >= config_.quarantine_after) {
    shard.quarantined.store(true, std::memory_order_release);
  }
}

void LockSpace::record_success(i32 shard_index) {
  shards_[static_cast<usize>(shard_index)]->consec_timeouts.store(
      0, std::memory_order_relaxed);
}

void LockSpace::acquire_slot(rma::RmaComm& comm, const LockRef& ref,
                             bool shared) {
  for (;;) {
    const i64 ctl = rehoming() ? read_ctl(comm, ref.shard) : 0;
    if ((ctl & 1) != 0) {
      // Migration in flight: wait it out. The drain is deadline-bounded,
      // so this resolves in bounded virtual time.
      comm.compute(200);
      continue;
    }
    const i32 plane = static_cast<i32>(ctl >> 1);
    Slot& slot = use_slot(ref, plane);
    if (shared && slot.rw != nullptr) {
      slot.rw->acquire_read(comm);
    } else {
      slot.ex->acquire(comm);  // exclusive backend: readers serialize
    }
    if (rehoming()) {
      // The migration fence: between our directory read and our grant the
      // shard may have been re-homed — in which case the plane we hold was
      // drained and abandoned, and the real lock now lives elsewhere.
      // Re-validate the control word before claiming the CS; on any change
      // release the stale plane and chase the new one. Re-homing is
      // exclusive-only (constructor CHECK), so the grant is the write side.
      if (!config_.rehome_skip_fence && read_ctl(comm, ref.shard) != ctl) {
        slot.ex->release(comm);
        continue;
      }
      holds_[static_cast<usize>(comm.rank())].push_back(
          {ref.global_slot, plane});
    }
    Shard& shard = *shards_[static_cast<usize>(ref.shard)];
    (shared ? shard.read_acquires : shard.write_acquires)
        .fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

void LockSpace::release_slot(rma::RmaComm& comm, const LockRef& ref,
                             bool shared) {
  i32 plane = 0;
  if (rehoming()) {
    // Pop the grant's plane: the most recent live hold of this physical
    // slot by this rank (nested distinct keys unwind LIFO).
    auto& stack = holds_[static_cast<usize>(comm.rank())];
    auto it = stack.rbegin();
    for (; it != stack.rend(); ++it) {
      if (it->first == ref.global_slot) break;
    }
    RMALOCK_CHECK_MSG(it != stack.rend(),
                      "release(key) without a live hold of slot "
                          << ref.global_slot << " on rank " << comm.rank());
    plane = it->second;
    stack.erase(std::next(it).base());
  }
  Slot& slot = use_slot(ref, plane);
  if (shared && slot.rw != nullptr) {
    slot.rw->release_read(comm);
  } else {
    slot.ex->release(comm);
  }
}

void LockSpace::acquire(rma::RmaComm& comm, u64 key) {
  acquire_slot(comm, resolve(key), /*shared=*/false);
}

void LockSpace::release(rma::RmaComm& comm, u64 key) {
  release_slot(comm, resolve(key), /*shared=*/false);
}

void LockSpace::acquire_read(rma::RmaComm& comm, u64 key) {
  acquire_slot(comm, resolve(key), /*shared=*/true);
}

void LockSpace::release_read(rma::RmaComm& comm, u64 key) {
  release_slot(comm, resolve(key), /*shared=*/true);
}

locks::AcquireResult LockSpace::try_acquire_for(rma::RmaComm& comm, u64 key,
                                                Nanos deadline_ns,
                                                const locks::RetryPolicy&
                                                    retry) {
  const LockRef ref = resolve(key);
  Shard& shard = *shards_[static_cast<usize>(ref.shard)];
  if (shard.quarantined.load(std::memory_order_acquire)) {
    // Fail fast: the health score says the ranks hosting this shard's
    // slots are gray. The caller gets its deadline budget back instead of
    // burning it.
    return locks::AcquireResult{locks::AcquireStatus::kDegraded, 0};
  }
  u32 attempts = 0;
  for (;;) {
    i64 ctl = 0;
    i32 plane = 0;
    if (rehoming()) {
      ctl = read_ctl(comm, ref.shard);
      if ((ctl & 1) != 0) {
        // Migration in flight: retry with backoff inside the deadline.
        ++attempts;
        if (attempts >= locks::RetryPolicy::kMaxAttempts ||
            comm.now_ns() >= deadline_ns) {
          record_timeout(ref.shard);
          return locks::AcquireResult{locks::AcquireStatus::kTimeout,
                                      attempts};
        }
        const Nanos delay = retry.delay_for(attempts - 1, comm.rng());
        if (delay > 0) comm.compute(delay);
        continue;
      }
      plane = static_cast<i32>(ctl >> 1);
    }
    Slot& slot = use_slot(ref, plane);
    locks::AcquireResult result =
        slot.ex->try_acquire_for(comm, deadline_ns, retry);
    attempts += result.attempts;
    if (result.status != locks::AcquireStatus::kAcquired) {
      record_timeout(ref.shard);
      result.attempts = attempts;
      return result;
    }
    if (rehoming() && !config_.rehome_skip_fence) {
      // The migration fence (see acquire_slot).
      if (read_ctl(comm, ref.shard) != ctl) {
        slot.ex->release(comm);
        if (attempts >= locks::RetryPolicy::kMaxAttempts ||
            comm.now_ns() >= deadline_ns) {
          record_timeout(ref.shard);
          return locks::AcquireResult{locks::AcquireStatus::kTimeout,
                                      attempts};
        }
        continue;
      }
    }
    if (rehoming()) {
      holds_[static_cast<usize>(comm.rank())].push_back(
          {ref.global_slot, plane});
    }
    record_success(ref.shard);
    shard.write_acquires.fetch_add(1, std::memory_order_relaxed);
    return locks::AcquireResult{locks::AcquireStatus::kAcquired, attempts};
  }
}

bool LockSpace::rehome_shard(rma::RmaComm& comm, i32 shard_index,
                             Nanos drain_budget_ns) {
  RMALOCK_CHECK_MSG(rehoming(), "LockSpaceConfig::rehome_epochs = 0");
  const i64 ctl = read_ctl(comm, shard_index);
  if ((ctl & 1) != 0) return false;  // already migrating
  const i64 epoch = ctl >> 1;
  if (epoch >= config_.rehome_epochs) return false;  // planes exhausted
  // Phase 1: flip to migrating. New claimants now wait; losing this CAS
  // means a concurrent migration won.
  if (comm.cas((epoch << 1) | 1, ctl, 0, ctl_offset(shard_index)) != ctl) {
    return false;
  }
  // Phase 2: drain the old plane — acquire and release every used slot
  // once, which serializes with every grant issued before the flip.
  // Claimants granted on the old plane after this drain saw the pre-flip
  // control word and are deflected by the fence before entering their CS.
  const i32 plane = static_cast<i32>(epoch);
  const Nanos deadline = comm.now_ns() + drain_budget_ns;
  const locks::RetryPolicy drain_retry{};
  for (i32 s = 0; s < config_.slots_per_shard; ++s) {
    const u32 gs = static_cast<u32>(shard_index) *
                       static_cast<u32>(config_.slots_per_shard) +
                   static_cast<u32>(s);
    Slot& slot = slots_[slot_index(plane, gs)];
    if (!slot.used.load(std::memory_order_acquire)) continue;
    const locks::AcquireResult r =
        slot.ex->try_acquire_for(comm, deadline, drain_retry);
    if (r.status != locks::AcquireStatus::kAcquired) {
      // Drain timed out (e.g. a wedged holder): abort the migration and
      // reopen the old plane — claimants resume where they were.
      comm.put(epoch << 1, 0, ctl_offset(shard_index));
      comm.flush(0);
      return false;
    }
    slot.ex->release(comm);
  }
  // Phase 3: commit the bumped epoch; the successor plane (and home) was
  // built with the space.
  comm.put((epoch + 1) << 1, 0, ctl_offset(shard_index));
  comm.flush(0);
  return true;
}

bool LockSpace::shard_quarantined(i32 shard) const {
  return shards_[static_cast<usize>(shard)]->quarantined.load(
      std::memory_order_acquire);
}

void LockSpace::reset_shard_health(i32 shard) {
  Shard& s = *shards_[static_cast<usize>(shard)];
  s.consec_timeouts.store(0, std::memory_order_relaxed);
  s.quarantined.store(false, std::memory_order_release);
}

i64 LockSpace::write_payload(rma::RmaComm& comm, u64 key, const i64* data,
                             usize n) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  RMALOCK_CHECK_MSG(n <= static_cast<usize>(config_.payload_words),
                    "payload write of " << n << " words exceeds the "
                                        << config_.payload_words
                                        << "-word slot payload");
  const LockRef ref = resolve(key);
  const WinOffset voff = version_offset(ref.global_slot);
  // Serialized by the caller-held write lock: bump to odd (publication in
  // progress), store the words in ascending index order — the order the
  // optimistic monitor's consistency check relies on — then bump to even.
  const i64 v = comm.get(ref.home, voff);
  comm.put(v + 1, ref.home, voff);
  for (usize i = 0; i < n; ++i) {
    comm.put(data[i], ref.home, voff + 1 + static_cast<WinOffset>(i));
  }
  comm.put(v + 2, ref.home, voff);
  return v + 2;
}

bool LockSpace::write_payload_fenced(rma::RmaComm& comm, u64 key, i64 token,
                                     const i64* data, usize n,
                                     i64* admitted_version) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  RMALOCK_CHECK(n <= static_cast<usize>(config_.payload_words));
  RMALOCK_CHECK_MSG(token > 0 && token <= (i64{1} << (62 - kTokenSeqBits)),
                    "fencing token " << token << " out of range");
  if (config_.skip_token_check) {
    // PLANTED BUG: trust the caller outright. Any overlap the lease's
    // clock assumptions let through now reaches the payload unfiltered.
    const i64 closing = write_payload(comm, key, data, n);
    if (admitted_version != nullptr) *admitted_version = closing;
    return true;
  }
  const LockRef ref = resolve(key);
  const WinOffset voff = version_offset(ref.global_slot);
  for (;;) {
    const i64 v = comm.get(ref.home, voff);
    comm.flush(ref.home);
    if ((v & 1) != 0) {
      // Another admitted session is mid-publication: wait for its closing
      // version write (the runtime parks this poll and wakes on it), then
      // re-validate — our token may well be stale by then.
      continue;
    }
    if (token < token_of_version(v)) return false;  // stale: fenced out
    const i64 seq = v & kTokenSeqMask;
    RMALOCK_CHECK_MSG(seq + 2 <= kTokenSeqMask,
                      "payload seq field exhausted on slot "
                          << ref.global_slot);
    // Session-begin CAS: admits the token and flips to odd in one atomic
    // unit, so no second writer — fenced or plain — can interleave between
    // the validation and the publication start.
    if (comm.cas((token << kTokenSeqBits) | (seq + 1), v, ref.home, voff) !=
        v) {
      continue;  // lost a race with another session: re-validate
    }
    for (usize i = 0; i < n; ++i) {
      comm.put(data[i], ref.home, voff + 1 + static_cast<WinOffset>(i));
    }
    comm.put((token << kTokenSeqBits) | (seq + 2), ref.home, voff);
    if (admitted_version != nullptr) {
      *admitted_version = (token << kTokenSeqBits) | (seq + 2);
    }
    return true;
  }
}

void LockSpace::locked_read(rma::RmaComm& comm, u64 key, i64* out, usize n) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  RMALOCK_CHECK(n <= static_cast<usize>(config_.payload_words));
  const LockRef ref = resolve(key);
  const WinOffset voff = version_offset(ref.global_slot);
  acquire_read(comm, key);
  // Writers are excluded, so even a torn get_vec observes one quiescent
  // payload state.
  comm.get_vec(ref.home, voff + 1, out, n);
  release_read(comm, key);
}

i64 LockSpace::payload_version(rma::RmaComm& comm, u64 key) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  const LockRef ref = resolve(key);
  return comm.get(ref.home, version_offset(ref.global_slot));
}

LockSpace::OptimisticResult LockSpace::optimistic_read(rma::RmaComm& comm,
                                                       u64 key, i64* out,
                                                       usize n) {
  RMALOCK_CHECK_MSG(optimistic_capable(), "LockSpaceConfig::payload_words = 0");
  RMALOCK_CHECK(n <= static_cast<usize>(config_.payload_words));
  const LockRef ref = resolve(key);
  const WinOffset voff = version_offset(ref.global_slot);
  OptimisticResult result;
  const u32 attempts = kOptimisticRetries + 1;
  for (u32 attempt = 0; attempt < attempts; ++attempt) {
    result.retries = attempt;
    const i64 v1 = comm.get(ref.home, voff);
    if ((v1 & 1) != 0) continue;  // writer mid-publication
    comm.get_vec(ref.home, voff + 1, out, n);
    if (config_.skip_read_validation) {
      // PLANTED BUG: certifying the snapshot without re-reading the version
      // accepts torn observations. Only the torn-read fault model exposes
      // this — an atomic multi-word read mid-write never violates the
      // ascending-order consistency check (see the header).
      result.ok = true;
      return result;
    }
    const i64 v2 = comm.get(ref.home, voff);
    if (v2 == v1) {
      result.ok = true;
      return result;
    }
  }
  // Retries exhausted (sustained write pressure): fall back to the read
  // lock, which always yields a consistent snapshot.
  result.retries = attempts;
  result.fell_back = true;
  acquire_read(comm, key);
  comm.get_vec(ref.home, voff + 1, out, n);
  release_read(comm, key);
  result.ok = true;
  return result;
}

u64 LockSpace::recover_orphans(rma::RmaComm& comm) {
  u64 reclaimed = 0;
  // Lock-free sweep: reclaiming races regular claimants through a single
  // CAS, so the sweep needs no lock of its own.
  for (Slot& slot : slots_) {
    if (!slot.used.load(std::memory_order_acquire)) continue;
    if (slot.lease == nullptr) continue;
    if (slot.lease->recover_orphan(comm)) ++reclaimed;
  }
  return reclaimed;
}

u64 LockSpace::instantiated_slots() const {
  return static_cast<u64>(
      std::count_if(slots_.begin(), slots_.end(), [](const Slot& slot) {
        return slot.used.load(std::memory_order_acquire);
      }));
}

u64 LockSpace::total_acquires() const {
  u64 sum = 0;
  for (const auto& shard : shards_) {
    sum += shard->write_acquires.load(std::memory_order_relaxed);
    sum += shard->read_acquires.load(std::memory_order_relaxed);
  }
  return sum;
}

std::vector<LockSpace::ShardMetrics> LockSpace::metrics() const {
  std::vector<ShardMetrics> out(static_cast<usize>(num_shards_));
  for (i32 shard = 0; shard < num_shards_; ++shard) {
    const Shard& s = *shards_[static_cast<usize>(shard)];
    ShardMetrics& m = out[static_cast<usize>(shard)];
    m.shard = shard;
    m.home = s.home;
    m.write_acquires = s.write_acquires.load(std::memory_order_relaxed);
    m.read_acquires = s.read_acquires.load(std::memory_order_relaxed);
    m.timeouts = s.timeouts.load(std::memory_order_relaxed);
    m.quarantined = s.quarantined.load(std::memory_order_relaxed);
    const u32 first = static_cast<u32>(shard) *
                      static_cast<u32>(config_.slots_per_shard);
    for (i32 plane = 0; plane < planes(); ++plane) {
      for (i32 slot = 0; slot < config_.slots_per_shard; ++slot) {
        if (slots_[slot_index(plane, first + static_cast<u32>(slot))]
                .used.load(std::memory_order_acquire)) {
          ++m.instantiated_slots;
        }
      }
    }
  }
  return out;
}

std::string LockSpace::describe() const {
  std::ostringstream out;
  out << "LockSpace<" << locks::backend_name(config_.backend) << "> "
      << num_shards_ << " shards x " << config_.slots_per_shard
      << " slots (" << total_slots() << " locks, " << words_per_slot_
      << " words/slot)";
  if (optimistic_capable()) {
    out << " + versioned payload (" << config_.payload_words
        << " words/slot)";
  }
  return out.str();
}

}  // namespace rmalock::lockspace
