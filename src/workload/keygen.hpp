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
//
// Construction is O(K) for zipfian (the zeta(K, s) prefix sum); build one
// generator per configuration outside run() and share it const across
// processes.
#pragma once

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace rmalock::workload {

enum class KeyDist : u8 { kUniform, kZipfian };

struct KeyGenConfig {
  u64 num_keys = 1 << 17;
  KeyDist dist = KeyDist::kZipfian;
  /// Zipf exponent s (>= 0; s == 0 degenerates to uniform). Values very
  /// close to 1 are nudged off the removable singularity of the sampler.
  double zipf_s = 0.99;
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
    }
    return 0;
  }

 private:
  KeyGenConfig config_;
  // Zipfian state (Gray et al.).
  double theta_ = 0, zetan_ = 0, alpha_ = 0, eta_ = 0;
};

}  // namespace rmalock::workload
