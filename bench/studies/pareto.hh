/**
 * @file
 * Pareto-front utilities over (latency, energy) points. The paper
 * selects EDP "because it allows us to investigate Pareto-optimal
 * design points that trade off latency and energy"; these helpers
 * make that trade-off explicit: extract the non-dominated set of a
 * sample, test membership, and compute the hypervolume indicator.
 */

#ifndef VAESA_BENCH_STUDIES_PARETO_HH
#define VAESA_BENCH_STUDIES_PARETO_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace vaesa {

/** A (latency, energy) objective pair; both minimized. */
using BiPoint = std::pair<double, double>;

/**
 * Indices of the non-dominated points (minimization in both
 * coordinates), sorted by ascending first coordinate. Duplicate
 * points keep their first occurrence.
 */
std::vector<std::size_t> paretoFront(const std::vector<BiPoint> &pts);

/**
 * True when candidate is dominated by some point in pts (strictly
 * worse in one coordinate, not better in the other).
 */
bool isDominated(const BiPoint &candidate,
                 const std::vector<BiPoint> &pts);

/**
 * Hypervolume (area) dominated by the front relative to a reference
 * point that must be weakly worse than every front point in both
 * coordinates. Larger is better.
 */
double hypervolume(const std::vector<BiPoint> &front,
                   const BiPoint &reference);

} // namespace vaesa

#endif // VAESA_BENCH_STUDIES_PARETO_HH
