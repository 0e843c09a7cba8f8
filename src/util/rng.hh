/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in VAESA (dataset sampling, weight init,
 * reparameterization noise, BO candidate generation, GD restarts) draws
 * from an explicitly seeded Rng so experiments are reproducible and can
 * be averaged over seeds, matching the paper's methodology.
 */

#ifndef VAESA_UTIL_RNG_HH
#define VAESA_UTIL_RNG_HH

#include <cstdint>
#include <vector>

namespace vaesa {

/**
 * The splitmix64 output function: add the golden-ratio increment to
 * @p x and avalanche the sum. Rng seeding steps its state through it,
 * and the config-dedup and cache-key hashes use it as a 64-bit mix.
 */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/**
 * Complete serializable state of an Rng. Restoring it resumes the
 * stream bit-for-bit (including the Box-Muller cached normal), which
 * is what makes killed-and-resumed runs identical to uninterrupted
 * ones.
 */
struct RngState
{
    /** xoshiro256++ state words. */
    std::uint64_t words[4] = {0, 0, 0, 0};

    /** Whether a second Box-Muller normal is cached. */
    bool hasCachedNormal = false;

    /** The cached normal (meaningful only when flagged). */
    double cachedNormal = 0.0;

    /** Exact equality (for resume tests). */
    bool operator==(const RngState &other) const = default;
};

/**
 * A small, fast, explicitly-seeded random number generator.
 *
 * Implements xoshiro256++ with splitmix64 seeding. Provides the handful
 * of distributions the framework needs: uniform doubles, uniform
 * integers, standard normals (Box-Muller with caching), and Fisher-Yates
 * shuffles.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t index(std::uint64_t n);

    /** Standard normal sample, N(0, 1). */
    double normal();

    /** Normal sample with given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Fisher-Yates shuffle of an index permutation [0, n). */
    std::vector<std::size_t> permutation(std::size_t n);

    /** permutation() into a caller-owned vector (capacity reused). */
    void permutationInto(std::size_t n, std::vector<std::size_t> &out);

    /** Snapshot the full generator state (for checkpoints). */
    RngState state() const;

    /** Restore a snapshot taken by state(). */
    void setState(const RngState &state);

  private:
    std::uint64_t state_[4];
    bool hasCachedNormal_ = false;
    double cachedNormal_ = 0.0;
};

} // namespace vaesa

#endif // VAESA_UTIL_RNG_HH
