// Deterministic random number generation for HPAS.
//
// Everything random in HPAS -- simulated workloads, anomaly buffer fills,
// ML bootstrap resampling -- flows from explicitly seeded generators so
// every experiment is bit-reproducible, which is the whole point of the
// suite (see paper Sec. 1: "repeatably and systematically study performance
// variability").
//
// We implement xoshiro256** (Blackman & Vigna) seeded through splitmix64,
// rather than std::mt19937, because its output sequence is identical across
// standard library implementations and it is significantly faster, which
// matters for the native anomalies that fill buffers with random bytes.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"

namespace hpas {

/// splitmix64: used to expand a single 64-bit seed into generator state.
/// Also usable standalone as a tiny, fast generator for non-critical paths.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Folds `v` into the running digest `h`, with the splitmix64 finalizer
/// as the mixing step: full avalanche per field, so adjacent inputs
/// (intensity 1.0 vs 1.5) land far apart. Builds the journal's scenario
/// key hash and the dataset's checkpoint keys.
inline void hash_combine(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
}

/// A double folds in by its bit pattern, a string by length and CRC32.
inline void hash_combine_double(std::uint64_t& h, double v) {
  hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

inline void hash_combine_string(std::uint64_t& h, std::string_view s) {
  hash_combine(h, s.size());
  hash_combine(h, crc32(s));
}

/// xoshiro256**: the main HPAS generator. Satisfies (most of) the C++
/// UniformRandomBitGenerator concept so it can be used with <random>
/// distributions when needed, though HPAS provides its own helpers below
/// for cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from one 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method: unbiased and branch-light. bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. lo must be <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare so the
  /// stream position is predictable).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Exponential with the given rate (lambda). rate must be > 0.
  double exponential(double rate);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derives an independent child generator; used to give each simulated
  /// node / process / ML fold its own stream so adding one consumer does
  /// not perturb the randomness seen by the others.
  Rng split();

  /// Fills a byte buffer with pseudorandom data (native anomalies use this
  /// to defeat memory deduplication / compression, as the paper's
  /// generators fill arrays with "random values").
  void fill_bytes(void* dst, std::size_t n);

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace hpas
