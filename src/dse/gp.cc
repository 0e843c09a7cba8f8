#include "dse/gp.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>

#include "tensor/linalg.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace vaesa {

namespace {

using Kernel = GaussianProcess::Kernel;

/**
 * The kernel at squared distance d2, split as poly * exp(arg) so a
 * tile can compute everything but the exp across its candidates.
 * Both kernelValue() and the k* fill go through this one formula.
 */
template <Kernel K>
inline void
kernelTerms(double d2, double ls, double &poly, double &arg)
{
    if constexpr (K == Kernel::Rbf) {
        poly = 1.0;
        arg = -0.5 * d2 / (ls * ls);
    } else {
        const double r = std::sqrt(d2) / ls;
        const double sq5r = std::sqrt(5.0) * r;
        poly = 1.0 + sq5r + 5.0 * r * r / 3.0;
        arg = -sq5r;
    }
}

template <Kernel K>
double
kernelAt(double d2, double ls)
{
    double poly, arg;
    kernelTerms<K>(d2, ls, poly, arg);
    return poly * std::exp(arg);
}

/**
 * k* for a tile: v[i * W + j] = k(cand_j, x_i) for the n training
 * rows xs (n x dim) and the W candidates cand (dim x W). The squared
 * distances and the kernel terms are computed across the tile, then
 * one scalar std::exp per element (a vector exp would not be
 * bit-identical). Per element the operations are those of
 * kernelAt(squaredDistance(cand_j, x_i)).
 */
template <std::size_t W, Kernel K>
void
fillKStar(const double *xs, std::size_t n, std::size_t dim,
          const double *cand, double ls, double *v)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double *xi = xs + i * dim;
        double d2[W];
        for (std::size_t j = 0; j < W; ++j)
            d2[j] = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
            const double x = xi[d];
            const double *c = cand + d * W;
            for (std::size_t j = 0; j < W; ++j) {
                const double diff = c[j] - x;
                d2[j] += diff * diff;
            }
        }
        double *vi = v + i * W;
        double arg[W];
        for (std::size_t j = 0; j < W; ++j)
            kernelTerms<K>(d2[j], ls, vi[j], arg[j]);
        for (std::size_t j = 0; j < W; ++j)
            vi[j] *= std::exp(arg[j]);
    }
}

/*
 * Grid and margins of boundBatch(). u = epsilon / 2 is the unit
 * roundoff. A sum of m rounded terms lies within gamma_m = m u /
 * (1 - m u) of the exact sum, relative to the sum of the terms'
 * magnitudes, and the forward substitution's computed v solves
 * (L + dL) v = k* exactly for some |dL| <= gamma_n |L| (Higham,
 * Accuracy and Stability of Numerical Algorithms, Thm 8.5).
 */

/** Step h of the kernel grid over s2 = d2 / ls^2, the squared
 *  distance in lengthscales. A power of two, so the grid points and
 *  the grid coordinate s2 / h are exact. */
constexpr double kGridStep = 1.0 / 16.0;

/** The grid spans s2 in [0, kGridPoints h] = [0, 256]. Past it a
 *  kernel value is bracketed by [0, k(256)]: 2.6e-56 for the RBF
 *  kernel, 1.4e-13 for Matern-5/2. */
constexpr std::size_t kGridPoints = 4096;

/** Relative slack on each bracketed kernel value. It covers the
 *  rounding of the grid values, of the grid coordinate and of
 *  predictTileOf()'s kernel value (an ulp of std::exp, a few ulps of
 *  arg, and |arg| < 36 on the grid), and the few roundings of the
 *  bracket arithmetic, whose grid values lie within 6.5% of each
 *  other (h = 1/16, and -d ln k / d s2 <= 5/6). Together they stay
 *  under 1e-13 relative. */
constexpr double kKernelSlack = 1e-9;

/** Relative rounding margin of the bounds: kRoundingUlps (n + 4)
 *  epsilon for n training points. The mean needs about
 *  (2n + 8) u (two n-term sums plus the de-standardization); the
 *  variance about 5 gamma_n (the substitution's dL twice, the row
 *  norm, the n + 1 term residual) plus a few ulps. This is a guard
 *  of at least 4x over both. */
constexpr double kRoundingUlps = 4.0;

/** Absolute margin for products that underflow: each loses at most
 *  2^-1074, so n of them stay far below this. */
constexpr double kUnderflowSlack = 1e-300;

/** Grid coordinates are capped here before their conversion to an
 *  integer cell, which is then capped at kGridPoints. */
constexpr double kCellCap = 1 << 30;

/**
 * The kernel as a function of s2 at the grid points: entry k + 1 is
 * k(k h) for k in [0, kGridPoints]. Entry 0 is 1 + h, standing in
 * for k(-h): the secant through it and k(0) has slope -1, below both
 * kernels' slope at 0 (-1/2 and -5/6), which is all the lower bound
 * asks of it. The two entries past the end repeat k(256), so the last
 * cell's chord is flat at k(256), an upper bound for every s2 past
 * the grid.
 */
template <Kernel K>
const double *
kernelGrid()
{
    static const std::array<double, kGridPoints + 4> grid = [] {
        std::array<double, kGridPoints + 4> g{};
        g[0] = 1.0 + kGridStep;
        for (std::size_t k = 0; k <= kGridPoints; ++k) {
            const double s2 = static_cast<double>(k) * kGridStep;
            if constexpr (K == Kernel::Rbf) {
                g[k + 1] = std::exp(-0.5 * s2);
            } else {
                const double s = std::sqrt(5.0 * s2);
                g[k + 1] = (1.0 + s + s * s / 3.0) * std::exp(-s);
            }
        }
        g[kGridPoints + 2] = g[kGridPoints + 3] = g[kGridPoints + 1];
        return g;
    }();
    return grid.data() + 1;
}

/**
 * The O(n) sums behind boundBatch() for W candidates (cand is dim x
 * W), accumulated onto zeroed outputs. Both kernels are decreasing
 * and convex in s2 (the Matern-5/2 second derivative is
 * 25/12 exp(-sqrt(5 s2))), so between grid points k h and (k + 1) h
 * the kernel lies below the chord and above the extensions of the
 * neighbouring secants. With [lo_ij, hi_ij] that bracket, widened by
 * kKernelSlack: low[j] = sum_i alpha_i (alpha_i > 0 ? lo_ij :
 * hi_ij), mag[j] = sum_i |alpha_i| hi_ij and reach[j] = max_i
 * lo_ij^2 weight_i. The squared distance is fillKStar()'s.
 */
template <std::size_t W, Kernel K>
void
boundSums(const double *xs, std::size_t n, std::size_t dim,
          const double *cand, double ls, const double *alpha,
          const double *weight, double *low, double *mag,
          double *reach)
{
    const double *grid = kernelGrid<K>();
    const double to_grid = 1.0 / (ls * ls * kGridStep);
    const double tail = grid[kGridPoints];
    for (std::size_t i = 0; i < n; ++i) {
        const double *xi = xs + i * dim;
        double d2[W];
        for (std::size_t j = 0; j < W; ++j)
            d2[j] = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
            const double x = xi[d];
            const double *c = cand + d * W;
            for (std::size_t j = 0; j < W; ++j) {
                const double diff = c[j] - x;
                d2[j] += diff * diff;
            }
        }
        const double a = alpha[i];
        const double a_lo = a > 0.0 ? a : 0.0;
        const double a_hi = a > 0.0 ? 0.0 : a;
        const double a_abs = std::abs(a);
        const double w = weight[i];
        // Grid coordinates across the tile, then the bracket from the
        // grid values around each. Past the grid, or for a NaN t
        // (whose kernel value and EI are NaN anyway), the cell is the
        // last grid point, whose flat padding gives the chord k(256)
        // and a lower bound that tail takes to 0.
        std::int32_t cell[W];
        double frac[W];
        for (std::size_t j = 0; j < W; ++j) {
            const double t = d2[j] * to_grid;
            const double tc = t < kCellCap ? t : kCellCap;
            const auto c = static_cast<std::int32_t>(tc);
            frac[j] = tc - static_cast<double>(c);
            cell[j] = std::min(c, static_cast<std::int32_t>(kGridPoints));
        }
        for (std::size_t j = 0; j < W; ++j) {
            const double *g = grid + cell[j];
            const double f = frac[j];
            const double hi = g[0] + (g[1] - g[0]) * f;
            const double lo = std::max(g[0] - (g[-1] - g[0]) * f,
                                       g[1] - (g[2] - g[1]) * (1.0 - f));
            const double lo_s =
                std::max(lo * (1.0 - kKernelSlack) - tail, 0.0);
            const double hi_s = hi * (1.0 + kKernelSlack);
            low[j] += a_lo * lo_s + a_hi * hi_s;
            mag[j] += a_abs * hi_s;
            reach[j] = std::max(reach[j], lo_s * lo_s * w);
        }
    }
}

/** Bitwise equality, so -0.0 and NaN inputs never share a row. */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

} // namespace

GaussianProcess::GaussianProcess(Kernel kernel)
    : kernel_(kernel)
{
}

GaussianProcess::GaussianProcess(Kernel kernel, const Hyper &hyper)
    : kernel_(kernel), hyper_(hyper)
{
}

double
GaussianProcess::kernelValue(const double *a, const double *b) const
{
    const double d2 = squaredDistance(a, b, dim_);
    switch (kernel_) {
      case Kernel::Rbf:
        return kernelAt<Kernel::Rbf>(d2, hyper_.lengthscale);
      case Kernel::Matern52:
        return kernelAt<Kernel::Matern52>(d2, hyper_.lengthscale);
    }
    panic("GaussianProcess: bad kernel");
}

std::size_t
GaussianProcess::storeInputs(const std::vector<std::vector<double>> &xs,
                             const std::vector<double> &ys)
{
    if (xs.empty() || xs.size() != ys.size())
        panic("GaussianProcess::fit: bad observation set (",
              xs.size(), " xs, ", ys.size(), " ys)");
    const std::size_t n = xs.size();
    const std::size_t dim = xs.front().size();
    for (const std::vector<double> &x : xs)
        if (x.size() != dim)
            panic("GaussianProcess::fit: inputs of dimension ", dim,
                  " and ", x.size());

    // The kernel is fixed for the object's life; the hyperparameters
    // and the inputs must match bit for bit for a row to be reused.
    std::size_t p = 0;
    if (factorExact_ && dim == dim_ &&
        sameBits(hyper_.lengthscale, factorHyper_.lengthscale) &&
        sameBits(hyper_.noiseVar, factorHyper_.noiseVar)) {
        const std::size_t common = std::min(n, sampleCount());
        while (p < common && std::equal(xs[p].begin(), xs[p].end(),
                                        xs_.begin() + p * dim, sameBits))
            ++p;
    }

    dim_ = dim;
    xs_.resize(n * dim);
    for (std::size_t i = p; i < n; ++i)
        std::copy(xs[i].begin(), xs[i].end(), xs_.begin() + i * dim);
    return p;
}

std::vector<double>
GaussianProcess::standardize(const std::vector<double> &ys)
{
    yMean_ = mean(ys);
    yStd_ = stddev(ys);
    // stddev() is NaN for fewer than two observations and ~0 for
    // identical ones; !(x > t) is the NaN-safe form of (x < t), so
    // both degenerate sets fall back to unit scale instead of
    // dividing by NaN/0 and poisoning every standardized label.
    if (!(yStd_ > 1e-12))
        yStd_ = 1.0;
    std::vector<double> y_std(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i)
        y_std[i] = (ys[i] - yMean_) / yStd_;
    return y_std;
}

void
GaussianProcess::gram(Matrix &k, std::size_t from, std::size_t to) const
{
    const std::size_t n = k.rows();
    double *kd = k.data();
    for (std::size_t i = from; i < to; ++i)
        for (std::size_t j = 0; j <= i; ++j)
            kd[i * n + j] =
                kernelValue(xs_.data() + i * dim_, xs_.data() + j * dim_);
}

void
GaussianProcess::solvePosterior(const std::vector<double> &y)
{
    const std::size_t n = y.size();
    alpha_ = solveLowerTransposed(choleskyLower_,
                                  solveLower(choleskyLower_, y));

    // log p(y) = -0.5 y^T alpha - sum log L_ii - n/2 log(2 pi).
    double quad = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        quad += y[i] * alpha_[i];
    double log_det_half = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        log_det_half += std::log(choleskyLower_(i, i));
    logLik_ = -0.5 * quad - log_det_half -
              0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &xs,
                     const std::vector<double> &ys)
{
    const std::size_t p = storeInputs(xs, ys);
    const std::vector<double> y = standardize(ys);
    const std::size_t n = xs.size();

    // Rows [0, p) of the factor carry over; only the new rows of K
    // are evaluated.
    Matrix lower;
    if (p > 0) {
        lower = Matrix(n, n);
        const std::size_t old_n = choleskyLower_.rows();
        for (std::size_t i = 0; i < p; ++i)
            std::copy_n(choleskyLower_.data() + i * old_n, i + 1,
                        lower.data() + i * n);
    }
    Matrix k(n, n);
    const auto noisy_gram = [&](std::size_t from, std::size_t to) {
        gram(k, from, to);
        for (std::size_t i = from; i < to; ++i)
            k(i, i) += hyper_.noiseVar;
    };
    noisy_gram(p, n);
    factorExact_ = cholesky(k, lower, p);
    if (!factorExact_) {
        noisy_gram(0, p);
        choleskyJittered(k, lower);
    }
    choleskyLower_ = std::move(lower);
    factorHyper_ = hyper_;
    solvePosterior(y);
    prepareBounds();
}

void
GaussianProcess::prepareBounds()
{
    // Cauchy-Schwarz in the (L L^T)^-1 inner product gives
    // k^T (L L^T)^-1 k >= k_i^2 / (L L^T)_ii for every i. The
    // substitution really solves with L + dL, whose row norms are at
    // most (1 + gamma_n) times L's, and the row norm below is itself
    // rounded; the (1 - err) factor absorbs both. The diagonal comes
    // from the stored factor, so a jittered factor stays covered.
    const std::size_t n = sampleCount();
    const double err =
        kRoundingUlps * static_cast<double>(n + 4) * DBL_EPSILON;
    const double *lower = choleskyLower_.data();
    bool finite = std::isfinite(yMean_) && std::isfinite(yStd_);
    rowWeight_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        double norm2 = 0.0;
        for (std::size_t k = 0; k <= i; ++k)
            norm2 += lower[i * n + k] * lower[i * n + k];
        rowWeight_[i] = (1.0 - err) / norm2;
        finite = finite && std::isfinite(alpha_[i]) && norm2 > 0.0 &&
                 std::isfinite(rowWeight_[i]);
    }
    boundable_ = finite;
}

template <std::size_t W>
void
GaussianProcess::predictTileOf(const std::vector<double> *xs,
                               Prediction *out, double *v,
                               double *cand) const
{
    // Row i of v holds k(x_j, xs_[i]) for the W candidates side by
    // side and is overwritten in place by row i of L^-1 k*, so the
    // inner loop of the forward substitution runs across independent
    // candidates (a constant trip count the compiler vectorizes)
    // instead of down one serial dependency chain. Per candidate the
    // operation sequence is exactly the one-query textbook one.
    const std::size_t n = sampleCount();
    for (std::size_t j = 0; j < W; ++j) {
        if (xs[j].size() != dim_)
            panic("GaussianProcess::predict: point of dimension ",
                  xs[j].size(), ", fitted ", dim_);
        for (std::size_t d = 0; d < dim_; ++d)
            cand[d * W + j] = xs[j][d];
    }
    switch (kernel_) {
      case Kernel::Rbf:
        fillKStar<W, Kernel::Rbf>(xs_.data(), n, dim_, cand,
                                  hyper_.lengthscale, v);
        break;
      case Kernel::Matern52:
        fillKStar<W, Kernel::Matern52>(xs_.data(), n, dim_, cand,
                                       hyper_.lengthscale, v);
        break;
    }

    const double *lower = choleskyLower_.data();
    double mean_std[W];
    double var_std[W];
    for (std::size_t j = 0; j < W; ++j) {
        mean_std[j] = 0.0;
        var_std[j] = kernelValue(xs[j].data(), xs[j].data());
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = lower + i * n;
        double *vi = v + i * W;
        double acc[W];
        for (std::size_t j = 0; j < W; ++j) {
            mean_std[j] += vi[j] * alpha_[i];
            acc[j] = vi[j];
        }
        for (std::size_t k = 0; k < i; ++k) {
            const double lik = li[k];
            const double *vk = v + k * W;
            // Fully unrolled, the tile's accumulators live in
            // registers; the baseline -O2 would keep them in memory.
#pragma GCC unroll 32
            for (std::size_t j = 0; j < W; ++j)
                acc[j] -= lik * vk[j];
        }
        const double lii = li[i];
        for (std::size_t j = 0; j < W; ++j) {
            vi[j] = acc[j] / lii;
            var_std[j] -= vi[j] * vi[j];
        }
    }

    for (std::size_t j = 0; j < W; ++j) {
        // Clamp BEFORE the caller takes sqrt: near-duplicate rows
        // make the subtraction catastrophically cancel, which can
        // leave a slightly negative or (through a degenerate solve)
        // NaN residual variance. (var < 0.0) is false for NaN and
        // would let it through, so test the NaN-safe complement.
        const double var = var_std[j] > 0.0 ? var_std[j] : 0.0;
        out[j] = {yMean_ + yStd_ * mean_std[j], yStd_ * yStd_ * var};
    }
}

void
GaussianProcess::predictBatch(std::span<const std::vector<double>> xs,
                              std::span<Prediction> out) const
{
    if (sampleCount() == 0)
        panic("GaussianProcess::predictBatch before fit");
    if (out.size() != xs.size())
        panic("GaussianProcess::predictBatch: ", xs.size(),
              " points but ", out.size(), " outputs");
    // Full tiles, then any remainder one candidate at a time (a tile
    // of one is the plain scalar solve, so a batch of one pays
    // nothing for the batching).
    const std::size_t full = xs.size() - xs.size() % predictTile;
    const std::size_t width = full ? predictTile : 1;
    std::vector<double> scratch((sampleCount() + dim_) * width);
    double *v = scratch.data();
    double *cand = v + sampleCount() * width;
    for (std::size_t j = 0; j < full; j += predictTile)
        predictTileOf<predictTile>(&xs[j], &out[j], v, cand);
    for (std::size_t j = full; j < xs.size(); ++j)
        predictTileOf<1>(&xs[j], &out[j], v, cand);
}

template <std::size_t W>
void
GaussianProcess::boundTileOf(const std::vector<double> *xs, Bound *out,
                             double *cand) const
{
    const std::size_t n = sampleCount();
    // The grid assumes a positive lengthscale (setHyper() may have
    // changed it since the fit).
    const bool boundable = boundable_ && hyper_.lengthscale > 0.0 &&
                           std::isfinite(hyper_.lengthscale);
    bool finite[W];
    for (std::size_t j = 0; j < W; ++j) {
        if (xs[j].size() != dim_)
            panic("GaussianProcess::boundBatch: point of dimension ",
                  xs[j].size(), ", fitted ", dim_);
        finite[j] = boundable;
        for (std::size_t d = 0; d < dim_; ++d) {
            cand[d * W + j] = xs[j][d];
            finite[j] = finite[j] && std::isfinite(xs[j][d]);
        }
    }
    double low[W] = {};
    double mag[W] = {};
    double reach[W] = {};
    switch (kernel_) {
      case Kernel::Rbf:
        boundSums<W, Kernel::Rbf>(xs_.data(), n, dim_, cand,
                                  hyper_.lengthscale, alpha_.data(),
                                  rowWeight_.data(), low, mag, reach);
        break;
      case Kernel::Matern52:
        boundSums<W, Kernel::Matern52>(xs_.data(), n, dim_, cand,
                                       hyper_.lengthscale, alpha_.data(),
                                       rowWeight_.data(), low, mag, reach);
        break;
    }

    const double err =
        kRoundingUlps * static_cast<double>(n + 4) * DBL_EPSILON;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t j = 0; j < W; ++j) {
        if (!finite[j]) {
            out[j] = {nan, nan};
            continue;
        }
        // The computed mean is at least the exact sum over the
        // brackets less two rounded n-term sums (this one and
        // predictTileOf's), each within gamma_n * mag[j], less the
        // rounding of yMean_ + yStd_ * mean.
        const double mean = yMean_ + yStd_ * low[j];
        const double mean_lower =
            mean - err * (std::abs(yMean_) + 2.0 * yStd_ * mag[j]) -
            kUnderflowSlack * (1.0 + yStd_);
        // The computed variance is at most prior (1 + gamma) minus
        // (1 - gamma) sum v_i^2, and sum v_i^2 >= reach[j]. The
        // prior is the very kernelValue() predictTileOf() starts
        // from. std::max keeps a NaN.
        const double prior = kernelValue(xs[j].data(), xs[j].data());
        const double var_std =
            std::max(prior * (1.0 + err) - reach[j], 0.0) +
            kUnderflowSlack;
        const double var_upper =
            yStd_ * yStd_ * var_std * (1.0 + err) + kUnderflowSlack;
        out[j] = {mean_lower, var_upper};
    }
}

void
GaussianProcess::boundBatch(std::span<const std::vector<double>> xs,
                            std::span<Bound> out) const
{
    if (sampleCount() == 0)
        panic("GaussianProcess::boundBatch before fit");
    if (out.size() != xs.size())
        panic("GaussianProcess::boundBatch: ", xs.size(),
              " points but ", out.size(), " outputs");
    const std::size_t full = xs.size() - xs.size() % predictTile;
    std::vector<double> cand(dim_ * (full ? predictTile : 1));
    for (std::size_t j = 0; j < full; j += predictTile)
        boundTileOf<predictTile>(&xs[j], &out[j], cand.data());
    for (std::size_t j = full; j < xs.size(); ++j)
        boundTileOf<1>(&xs[j], &out[j], cand.data());
}

double
GaussianProcess::logMarginalLikelihood() const
{
    if (sampleCount() == 0)
        panic("logMarginalLikelihood before fit");
    return logLik_;
}

void
GaussianProcess::fitWithHyperSearch(
    const std::vector<std::vector<double>> &xs,
    const std::vector<double> &ys)
{
    static const double lengthscales[] = {0.05, 0.1, 0.2, 0.4, 0.8,
                                          1.6};
    static const double noises[] = {1e-6, 1e-4, 1e-2};

    storeInputs(xs, ys);
    const std::vector<double> y = standardize(ys);
    const std::size_t n = xs.size();

    // The best grid fit so far, swapped out of the members; with no
    // winner the hyperparameters we came in with stay.
    Hyper best = hyper_;
    double best_lik = -1e300;
    bool best_exact = false;
    Matrix best_lower;
    std::vector<double> best_alpha;

    Matrix k(n, n);
    std::vector<double> diag(n);
    for (double ls : lengthscales) {
        hyper_.lengthscale = ls;
        gram(k, 0, n);
        for (std::size_t i = 0; i < n; ++i)
            diag[i] = k(i, i);
        for (double nv : noises) {
            hyper_.noiseVar = nv;
            for (std::size_t i = 0; i < n; ++i)
                k(i, i) = diag[i] + nv;
            factorExact_ = cholesky(k, choleskyLower_);
            if (!factorExact_)
                choleskyJittered(k, choleskyLower_);
            solvePosterior(y);
            if (logLik_ > best_lik) {
                best_lik = logLik_;
                best = hyper_;
                best_exact = factorExact_;
                std::swap(best_lower, choleskyLower_);
                std::swap(best_alpha, alpha_);
            }
        }
    }

    if (best_lower.rows() == 0) {
        // No grid point beat the floor (e.g. a NaN likelihood
        // everywhere): fit with the hyperparameters we came in with.
        factorExact_ = false;
        hyper_ = best;
        fit(xs, ys);
        return;
    }
    hyper_ = best;
    factorHyper_ = best;
    factorExact_ = best_exact;
    choleskyLower_ = std::move(best_lower);
    alpha_ = std::move(best_alpha);
    logLik_ = best_lik;
    prepareBounds();
}

double
normalPdf(double z)
{
    return std::exp(-0.5 * z * z) / std::sqrt(2.0 * M_PI);
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

} // namespace vaesa
