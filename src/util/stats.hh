/**
 * @file
 * Sample statistics used to report experiment results.
 *
 * The paper reports every experiment as mean +/- standard deviation over
 * several random seeds; these helpers compute that, plus geometric
 * means, percentiles for convergence-curve bands.
 */

#ifndef VAESA_UTIL_STATS_HH
#define VAESA_UTIL_STATS_HH

#include <vector>

namespace vaesa {

/** Mean of a vector (0 when empty). */
double mean(const std::vector<double> &xs);

/** Sample standard deviation of a vector (NaN with fewer than 2
 *  items — undefined, not zero; report it as "n/a"). */
double stddev(const std::vector<double> &xs);

/** Geometric mean; requires strictly positive entries. */
double geomean(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile of a copy-sorted sample.
 * @param q quantile in [0, 1].
 */
double percentile(std::vector<double> xs, double q);

} // namespace vaesa

#endif // VAESA_UTIL_STATS_HH
