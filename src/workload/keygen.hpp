// Deterministic key-popularity generators for lock-service workloads.
//
// Every generator is a pure function of (its immutable parameters, the
// caller's RNG stream): the engine seeds one common::Xoshiro256 per process
// from (world seed, rank), so a SimWorld replay regenerates the identical
// key sequence and virtual-time metrics stay bit-identical across --jobs
// values and across record/replay.
//
// Distributions:
//   * uniform  — every key equally likely;
//   * zipfian  — Zipf(s) over key popularity ranks, sampled in O(1) with
//     the Gray et al. (SIGMOD'94) method (the YCSB generator): popularity
//     rank r has probability ∝ 1/r^s. Key id == popularity rank; the
//     LockSpace directory hashes ids, so hot keys still spread over
//     shards.
//   * hotspot  — a hot set of ⌈hotspot_fraction · K⌉ keys receives
//     hotspot_weight of the traffic; both halves are uniform inside.
//
// Construction is O(K) for zipfian (the zeta(K, s) prefix sum); build one
// generator per configuration outside run() and share it const across
// processes.
#pragma once

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace rmalock::workload {

enum class KeyDist : u8 { kUniform, kZipfian, kHotspot };

struct KeyGenConfig {
  u64 num_keys = 1 << 17;
  KeyDist dist = KeyDist::kZipfian;
  /// Zipf exponent s (>= 0; s == 0 degenerates to uniform). Values very
  /// close to 1 are nudged off the removable singularity of the sampler.
  double zipf_s = 0.99;
  /// kHotspot: fraction of the key space that is hot, and the fraction of
  /// traffic it receives.
  double hotspot_fraction = 0.1;
  double hotspot_weight = 0.9;
};

class KeyGenerator {
 public:
  explicit KeyGenerator(KeyGenConfig config) : config_(config) {
    RMALOCK_CHECK_MSG(config_.num_keys >= 1, "need at least one key");
    if (config_.dist == KeyDist::kZipfian &&
        (config_.zipf_s <= 0.0 || config_.num_keys == 1)) {
      // Degenerate cases sample as exact uniform instead of running the
      // Gray et al. recurrence outside its domain: s == 0 is analytically
      // uniform (1/r^0 is constant), and K == 1 has only one key but a
      // negative eta denominator (zeta2 = 2 > zetan = 1) that made next()
      // misbehave. The rewritten config is observable so callers and JSON
      // records see the distribution that actually ran.
      config_.dist = KeyDist::kUniform;
    }
    if (config_.dist == KeyDist::kZipfian) {
      double s = config_.zipf_s;
      if (std::abs(s - 1.0) < 1e-9) s = 1.0 - 1e-9;  // sampler singularity
      theta_ = s;
      zetan_ = 0.0;
      for (u64 i = 1; i <= config_.num_keys; ++i) {
        zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
      }
      const double zeta2 = 1.0 + std::pow(0.5, theta_);
      alpha_ = 1.0 / (1.0 - theta_);
      const double eta_denom = 1.0 - zeta2 / zetan_;
      // K == 2 makes the denominator exactly zero (zeta2 == zetan). The
      // value is never used — next() resolves both keys on the uz < 1 and
      // uz < 1 + 2^-theta branches before reaching eta_ — so pin it to
      // keep the state finite instead of propagating an inf.
      eta_ = eta_denom == 0.0
                 ? 0.0
                 : (1.0 -
                    std::pow(2.0 / static_cast<double>(config_.num_keys),
                             1.0 - theta_)) /
                       eta_denom;
    } else if (config_.dist == KeyDist::kHotspot) {
      RMALOCK_CHECK(config_.hotspot_fraction > 0.0 &&
                    config_.hotspot_fraction <= 1.0);
      RMALOCK_CHECK(config_.hotspot_weight >= 0.0 &&
                    config_.hotspot_weight <= 1.0);
      hot_keys_ = std::max<u64>(
          1, static_cast<u64>(std::ceil(config_.hotspot_fraction *
                                        static_cast<double>(config_.num_keys))));
    }
  }

  [[nodiscard]] const KeyGenConfig& config() const { return config_; }

  /// Next key in [0, num_keys), drawn from the caller's stream.
  [[nodiscard]] u64 next(Xoshiro256& rng) const {
    switch (config_.dist) {
      case KeyDist::kUniform:
        return rng.below(config_.num_keys);
      case KeyDist::kZipfian: {
        const double u = rng.uniform();
        const double uz = u * zetan_;
        if (uz < 1.0) return 0;
        if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
        const u64 rank = static_cast<u64>(
            static_cast<double>(config_.num_keys) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return rank >= config_.num_keys ? config_.num_keys - 1 : rank;
      }
      case KeyDist::kHotspot: {
        const bool hot = rng.uniform() < config_.hotspot_weight;
        if (hot || hot_keys_ == config_.num_keys) {
          return rng.below(hot_keys_);
        }
        return hot_keys_ + rng.below(config_.num_keys - hot_keys_);
      }
    }
    return 0;
  }

 private:
  KeyGenConfig config_;
  // Zipfian state (Gray et al.).
  double theta_ = 0, zetan_ = 0, alpha_ = 0, eta_ = 0;
  // Hotspot state.
  u64 hot_keys_ = 0;
};

}  // namespace rmalock::workload
