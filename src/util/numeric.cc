#include "util/numeric.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace vaesa {

double
log2d(double x)
{
    if (x <= 0.0)
        panic("log2d requires x > 0, got ", x);
    return std::log2(x);
}

double
clampd(double x, double lo, double hi)
{
    return std::min(std::max(x, lo), hi);
}

} // namespace vaesa
