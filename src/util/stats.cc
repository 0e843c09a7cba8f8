#include "util/stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace vaesa {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    // The unbiased estimator divides by n-1, so it is undefined for
    // n < 2: NaN, not 0, which would dress up "no spread information"
    // as "zero spread". NaN-aware consumers: gp.cc guards its
    // standardization scale with !(x > eps); benches print "n/a".
    if (xs.size() < 2)
        return std::numeric_limits<double>::quiet_NaN();
    const double m = mean(xs);
    double acc = 0.0;
    for (double x : xs)
        acc += (x - m) * (x - m);
    return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            panic("geomean requires strictly positive entries");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(xs.size()));
}

double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        panic("percentile of empty sample");
    if (q < 0.0 || q > 1.0)
        panic("percentile quantile out of [0, 1]");
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = static_cast<std::size_t>(std::ceil(pos));
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

} // namespace vaesa
