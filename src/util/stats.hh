/**
 * @file
 * Summary statistics used to report experiment results.
 *
 * The paper reports every experiment as mean +/- standard deviation over
 * several random seeds; Summary collects exactly that, plus extrema and
 * percentiles for convergence-curve bands.
 */

#ifndef VAESA_UTIL_STATS_HH
#define VAESA_UTIL_STATS_HH

#include <cstddef>
#include <vector>

namespace vaesa {

/**
 * Incremental summary of a sample set: count, mean, variance (Welford),
 * min and max. Cheap to copy, no stored samples.
 */
class Summary
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations added. */
    std::size_t count() const { return count_; }

    /** Arithmetic mean (0 when empty). */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Unbiased sample variance (NaN with fewer than two samples —
     *  undefined, not zero; report it as "n/a"). */
    double variance() const;

    /** Sample standard deviation (NaN with fewer than two samples). */
    double stddev() const;

    /** Smallest observation (+inf when empty). */
    double min() const { return min_; }

    /** Largest observation (-inf when empty). */
    double max() const { return max_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_;
    double max_;
};

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

/**
 * Pearson correlation coefficient of two equal-length samples.
 * Returns 0 when either sample is constant.
 */
double correlation(const std::vector<double> &xs,
                   const std::vector<double> &ys);

} // namespace vaesa

#endif // VAESA_UTIL_STATS_HH
