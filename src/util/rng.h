// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every experiment in this repository is seeded explicitly; there is no
// global RNG state.  Rng is a xoshiro256** generator seeded via splitmix64,
// which is fast, has a 256-bit state, and passes BigCrush.  It satisfies
// std::uniform_random_bit_generator so it can also drive <random>
// distributions when needed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace dnsnoise {

/// splitmix64 step; used for seeding and for cheap hash mixing.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of a single value (finalizer of splitmix64).
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// Shard routing: maps an entity ID onto one of `count` shards through the
/// splitmix64 finalizer, so consecutive IDs spread uniformly.  Both the
/// cluster's client-hash balancing and the engine's by-server traffic
/// sharding use this single definition — they MUST agree for shard
/// decomposition to reproduce the monolithic routing.
constexpr std::size_t shard_of(std::uint64_t id, std::size_t count) noexcept {
  return static_cast<std::size_t>(mix64(id) % count);
}

/// Derives the seed of shard `index` from a base seed.  Every shard gets an
/// independently mixed stream — never hand the same raw seed to sibling
/// shards, or their "random" decisions correlate.
constexpr std::uint64_t shard_seed(std::uint64_t base,
                                   std::uint64_t index) noexcept {
  return mix64(base ^ mix64(index ^ 0xd1b54a32d192ed03ULL));
}

/// FNV-1a 64-bit hash of a byte string; used to derive per-entity seeds.
constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// xoshiro256** deterministic generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    reseed(seed);
  }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n).  n must be > 0.
  std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded sampling.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = -n % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Standard normal via Box-Muller (no cached spare; simple and stateless).
  double normal(double mu = 0.0, double sigma = 1.0) noexcept;

  /// Poisson-distributed count (Knuth for small means, normal approx above).
  std::uint64_t poisson(double mean) noexcept;

  /// Geometric number of failures before first success, success prob p.
  std::uint64_t geometric(double p) noexcept;

  /// Pareto (power-law) sample with scale xm and shape alpha.
  double pareto(double xm, double alpha) noexcept;

  /// Random lowercase hex string of the given length.
  std::string hex_string(std::size_t length);

  /// Random string over a custom alphabet.
  std::string string_over(std::string_view alphabet, std::size_t length);

  /// Derive an independent child generator (stable under call order changes).
  Rng fork(std::uint64_t stream) const noexcept {
    return Rng(mix64(state_[0] ^ mix64(stream ^ 0xd1b54a32d192ed03ULL)));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace dnsnoise
