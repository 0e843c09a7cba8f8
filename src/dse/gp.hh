/**
 * @file
 * Gaussian-process regression for Bayesian optimization.
 *
 * One kernel, Matern-5/2 with an isotropic lengthscale, plus
 * observation noise and internal y-standardization. Hyperparameters
 * are selected by maximizing the log marginal likelihood over a small
 * grid, which is robust and deterministic.
 */

#ifndef VAESA_DSE_GP_HH
#define VAESA_DSE_GP_HH

#include <span>
#include <vector>

#include "tensor/kernels/kernels.hh"
#include "tensor/matrix.hh"

namespace vaesa {

/** Gaussian-process regressor with a Matern-5/2 kernel. */
class GaussianProcess
{
  public:
    /** Kernel hyperparameters (y is standardized internally, so the
     *  signal variance is fixed at 1). */
    struct Hyper
    {
        /** Isotropic lengthscale in box units. */
        double lengthscale = 0.3;

        /** Observation-noise variance (standardized units). */
        double noiseVar = 1e-4;
    };

    /** Construct with default hyperparameters. */
    GaussianProcess() = default;

    /** Construct with hyperparameters. */
    explicit GaussianProcess(const Hyper &hyper);

    /**
     * Fit to observations. Inputs are copied; y is standardized
     * internally. Requires at least one observation, all of one
     * dimension.
     *
     * The Cholesky factor is extended rather than rebuilt: if the
     * previous factor used the same hyperparameters and needed no
     * jitter, its rows for the longest bitwise-equal prefix of the
     * old and new inputs are kept and only the remaining rows are
     * computed. A kept row is the row a fresh fit computes, so the
     * predictions and the likelihood are bit-identical to a fresh
     * GaussianProcess fitted to the same data.
     */
    void fit(const std::vector<std::vector<double>> &xs,
             const std::vector<double> &ys);

    /** Posterior mean and variance at one point. */
    struct Prediction
    {
        /** Posterior mean in original y units. */
        double mean;

        /** Posterior variance in original y^2 units (>= 0). */
        double var;
    };

    /**
     * Candidates per forward-substitution tile in predictBatch().
     * Callers that split a batch (e.g. across a pool) should cut it
     * at multiples of this width so no tile is left partly filled.
     */
    static constexpr std::size_t predictTile = 32;

    /**
     * Predict at every point of a contiguous range: out[j] is the
     * posterior at xs[j]. Candidates are solved a tile at a time
     * with the tile's k* columns interleaved, but each one sees
     * exactly the scalar sequence of operations (mean and variance
     * reduced over training points in ascending order, forward
     * substitution in ascending column order), so results are bit
     * for bit independent of the batch size and of how a batch is
     * split. Requires a prior fit() and out.size() == xs.size().
     */
    void predictBatch(std::span<const std::vector<double>> xs,
                      std::span<Prediction> out) const;

    /** Guaranteed bounds on one candidate's predictBatch() result. */
    struct Bound
    {
        /** At most the posterior mean predictBatch() computes. */
        double meanLower;

        /** At least the posterior variance predictBatch() computes. */
        double varUpper;
    };

    /**
     * Bound the posterior at every point of a contiguous range
     * without solving for it: out[j] brackets the doubles
     * predictBatch() computes for xs[j] (meanLower <= mean,
     * varUpper >= var, after rounding). Costs O(n * dim) per point
     * with no libm exp and no forward substitution: each kernel value
     * is recomputed with a polynomial exp and bracketed by a relative
     * slack, the mean bound takes the low or high end by the sign of
     * alpha, and the variance bound applies Cauchy-Schwarz to the
     * best single training point of the stored factor. Explicit
     * margins cover the rounding of both computations (see
     * gp_bound.cc). A point with a non-finite coordinate, a fit with
     * a non-finite alpha or factor, or a lengthscale that is not
     * positive and finite gets NaN bounds, which promise nothing.
     * Requires a prior fit() and out.size() == xs.size().
     */
    void boundBatch(std::span<const std::vector<double>> xs,
                    std::span<Bound> out) const;

    /**
     * Test seam: boundBatch() on @p isa's bound pass, whichever one
     * kernels::gemmIsa() picked: the AVX-512 clone for Avx512 (full
     * tiles of predictTile candidates; the rest run the default body
     * either way), else the default body. Returns false, writing
     * nothing, when this build or this CPU cannot run @p isa (as
     * kernels::gemmOn()).
     */
    bool boundBatchOn(kernels::GemmIsa isa,
                      std::span<const std::vector<double>> xs,
                      std::span<Bound> out) const;

    /**
     * Tighten boundBatch()'s variance bounds in place: bounds[j]
     * must be xs[j]'s, and keeps bracketing predictBatch()'s result.
     * The variance bound is redone over the point's four nearest
     * training points, at O(n * dim) plus a few dot products of
     * factor rows per point, and the smaller of the two is kept. A
     * NaN bound stays NaN. Requires a prior fit() and
     * bounds.size() == xs.size().
     */
    void refineBatch(std::span<const std::vector<double>> xs,
                     std::span<Bound> bounds) const;

    /** Log marginal likelihood of the last fit (standardized y). */
    double logMarginalLikelihood() const;

    /**
     * Pick hyperparameters by grid-searching lengthscale x noise for
     * the maximum log marginal likelihood (the first maximum wins)
     * and keep the winning fit. The noise-free Gram matrix is built
     * once per lengthscale; each noise level only changes its
     * diagonal. The result is bit-identical to a fresh
     * GaussianProcess with the winning hyperparameters fitted to the
     * same data.
     */
    void fitWithHyperSearch(const std::vector<std::vector<double>> &xs,
                            const std::vector<double> &ys);

    /** Current hyperparameters. */
    const Hyper &hyper() const { return hyper_; }

    /** Set hyperparameters (takes effect at the next fit). */
    void setHyper(const Hyper &hyper) { hyper_ = hyper; }

    /** Number of fitted observations (0 before fit). */
    std::size_t sampleCount() const { return choleskyLower_.rows(); }

  private:
    /** Kernel value between two dim_-length points. */
    double kernelValue(const double *a, const double *b) const;

    /**
     * Check the observation set and copy the inputs into xs_.
     * Returns how many leading rows of choleskyLower_ stay valid:
     * the length of the bitwise-equal prefix of the old and new
     * inputs when the factor can be extended, else 0.
     */
    std::size_t storeInputs(const std::vector<std::vector<double>> &xs,
                            const std::vector<double> &ys);

    /** Set yMean_/yStd_ from ys and return the standardized labels. */
    std::vector<double> standardize(const std::vector<double> &ys);

    /** Noise-free kernel values of rows [from, to) of the Gram
     *  matrix, lower triangle only. */
    void gram(Matrix &k, std::size_t from, std::size_t to) const;

    /** alpha_ and logLik_ from choleskyLower_ and standardized y. */
    void solvePosterior(const std::vector<double> &y);

    /** predictBatch() body for W consecutive candidates; v is an
     *  n x W scratch tile and cand a dim x W one. */
    template <std::size_t W>
    void predictTileOf(const std::vector<double> *xs, Prediction *out,
                       double *v, double *cand) const;

    /** boundBatch() body for W consecutive candidates on @p isa's
     *  bound pass; cand is a dim x W scratch tile. */
    template <std::size_t W>
    void boundTileOf(kernels::GemmIsa isa, const std::vector<double> *xs,
                     Bound *out, double *cand) const;

    /** rowNorm2_ and boundable_ from choleskyLower_ and alpha_;
     *  the row norms below @p fromRow are those of rows the fit kept
     *  and are not recomputed. */
    void prepareBounds(std::size_t fromRow);

    Hyper hyper_;
    /** Input dimension of the fitted observations. */
    std::size_t dim_ = 0;
    /** Fitted inputs, n x dim_ row-major. */
    std::vector<double> xs_;
    std::vector<double> alpha_;
    Matrix choleskyLower_;
    /** Hyperparameters choleskyLower_ was computed with. */
    Hyper factorHyper_;
    /** Whether choleskyLower_ needed no jitter, so its rows are
     *  those of the plain factor and fit() may extend it. */
    bool factorExact_ = false;
    double yMean_ = 0.0;
    double yStd_ = 1.0;
    double logLik_ = 0.0;
    /** Per training point, the computed squared norm of its row of
     *  the stored factor, (L L^T)_ii. */
    std::vector<double> rowNorm2_;
    /** fit()'s Gram-matrix scratch, reshaped (never cleared) per
     *  fit. */
    Matrix gramScratch_;
    /** fitWithHyperSearch()'s second factor buffer: the best grid
     *  point's factor during a search, a spare between searches. */
    Matrix factorSpare_;
    /** Whether alpha_, the factor's row norms and y's scaling are
     *  finite, so boundBatch() can bound the computed predictions. */
    bool boundable_ = false;
};

/** Standard normal probability density. */
double normalPdf(double z);

/** Standard normal cumulative distribution (via erf). */
double normalCdf(double z);

} // namespace vaesa

#endif // VAESA_DSE_GP_HH
