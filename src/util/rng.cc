#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace vaesa {

namespace {

/** splitmix64 step, used to expand the seed into the xoshiro state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    const std::uint64_t z = mix64(x);
    x += 0x9E3779B97F4A7C15ull;
    return z;
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits give a uniform double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::index(std::uint64_t n)
{
    if (n == 0)
        panic("Rng::index called with n == 0");
    // Rejection-free modulo is fine here; bias is negligible for the
    // small n used throughout (grid sizes << 2^64).
    return next() % n;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    // Box-Muller transform; u1 is kept away from 0 to avoid log(0).
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    const double u2 = uniform();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cachedNormal_ = radius * std::sin(angle);
    hasCachedNormal_ = true;
    return radius * std::cos(angle);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> perm;
    permutationInto(n, perm);
    return perm;
}

void
Rng::permutationInto(std::size_t n, std::vector<std::size_t> &out)
{
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = i;
    for (std::size_t i = n; i > 1; --i) {
        const std::size_t j = index(i);
        std::swap(out[i - 1], out[j]);
    }
}

RngState
Rng::state() const
{
    RngState snapshot;
    for (int i = 0; i < 4; ++i)
        snapshot.words[i] = state_[i];
    snapshot.hasCachedNormal = hasCachedNormal_;
    snapshot.cachedNormal = cachedNormal_;
    return snapshot;
}

void
Rng::setState(const RngState &state)
{
    for (int i = 0; i < 4; ++i)
        state_[i] = state.words[i];
    hasCachedNormal_ = state.hasCachedNormal;
    cachedNormal_ = state.cachedNormal;
}

} // namespace vaesa
