#include "dse/gp.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/kernels/triangular.hh"
#include "tensor/linalg.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace vaesa {

namespace {

static_assert(GaussianProcess::predictTile == kernels::kSolveTile,
              "a full predict tile is one solveLowerTile() call");

/**
 * The Matern-5/2 kernel at squared distance d2, split as
 * poly * exp(arg) so a tile can compute everything but the exp across
 * its candidates. Both kernelValue() and the k* fill go through this
 * one formula.
 */
inline void
kernelTerms(double d2, double ls, double &poly, double &arg)
{
    const double r = std::sqrt(d2) / ls;
    const double sq5r = std::sqrt(5.0) * r;
    poly = 1.0 + sq5r + 5.0 * r * r / 3.0;
    arg = -sq5r;
}

/**
 * k* for a tile: v[i * W + j] = k(cand_j, x_i) for the n training
 * rows xs (n x dim) and the W candidates cand (dim x W). The squared
 * distances and the kernel terms are computed across the tile, then
 * one scalar std::exp per element (a vector exp would not be
 * bit-identical). Per element the operations are those of
 * kernelValue(cand_j, x_i).
 */
template <std::size_t W>
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
            kernelTerms(d2[j], ls, vi[j], arg[j]);
        for (std::size_t j = 0; j < W; ++j)
            vi[j] *= std::exp(arg[j]);
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

GaussianProcess::GaussianProcess(const Hyper &hyper)
    : hyper_(hyper)
{
}

double
GaussianProcess::kernelValue(const double *a, const double *b) const
{
    double poly, arg;
    kernelTerms(squaredDistance(a, b, dim_), hyper_.lengthscale, poly,
                arg);
    return poly * std::exp(arg);
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

    // The hyperparameters and the inputs must match bit for bit for a
    // row to be reused.
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

    // Rows [0, p) of the factor carry over, moved in place to the new
    // row stride (row 0 stays put): last row first when the stride
    // grows, first row first when it shrinks, so no row is overwritten
    // before it has moved. Only the new rows of K are evaluated.
    Matrix &lower = choleskyLower_;
    const std::size_t old_n = lower.rows();
    if (n > old_n) {
        lower.resizeBuffer(n, n);
        for (std::size_t i = p; i-- > 1;)
            std::memmove(lower.data() + i * n, lower.data() + i * old_n,
                         (i + 1) * sizeof(double));
    } else if (n < old_n) {
        for (std::size_t i = 1; i < p; ++i)
            std::memmove(lower.data() + i * n, lower.data() + i * old_n,
                         (i + 1) * sizeof(double));
        lower.resizeBuffer(n, n);
    }
    // Only the rows of K the factorization reads are written, so the
    // scratch is reshaped, not cleared.
    Matrix &k = gramScratch_;
    k.resizeBuffer(n, n);
    const auto noisy_gram = [&](std::size_t from, std::size_t to) {
        gram(k, from, to);
        for (std::size_t i = from; i < to; ++i)
            k(i, i) += hyper_.noiseVar;
    };
    noisy_gram(p, n);
    factorExact_ = cholesky(k, lower, p);
    std::size_t fresh_from = p;
    if (!factorExact_) {
        noisy_gram(0, p);
        choleskyJittered(k, lower);
        fresh_from = 0;
    }
    factorHyper_ = hyper_;
    solvePosterior(y);
    prepareBounds(fresh_from);
}

template <std::size_t W>
void
GaussianProcess::predictTileOf(const std::vector<double> *xs,
                               Prediction *out, double *v,
                               double *cand) const
{
    // Row i of v holds k(x_j, xs_[i]) for the W candidates side by
    // side and is overwritten in place by row i of L^-1 k*, so the
    // forward substitution of a full tile runs across independent
    // candidates (kernels::solveLowerTile) instead of down one serial
    // dependency chain. Per candidate the operation sequence is
    // exactly the one-query textbook one.
    const std::size_t n = sampleCount();
    for (std::size_t j = 0; j < W; ++j) {
        if (xs[j].size() != dim_)
            panic("GaussianProcess::predict: point of dimension ",
                  xs[j].size(), ", fitted ", dim_);
        for (std::size_t d = 0; d < dim_; ++d)
            cand[d * W + j] = xs[j][d];
    }
    fillKStar<W>(xs_.data(), n, dim_, cand, hyper_.lengthscale, v);

    // Per candidate: the mean reduces k* against alpha, the forward
    // substitution overwrites k* with L^-1 k*, and the variance
    // subtracts its squares, each over the training points in
    // ascending order.
    double mean_std[W];
    double var_std[W];
    for (std::size_t j = 0; j < W; ++j) {
        mean_std[j] = 0.0;
        var_std[j] = kernelValue(xs[j].data(), xs[j].data());
    }
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < W; ++j)
            mean_std[j] += v[i * W + j] * alpha_[i];
    if constexpr (W == 1)
        kernels::solveLower(choleskyLower_.data(), n, v, v);
    else
        kernels::solveLowerTile(choleskyLower_.data(), n, v);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < W; ++j)
            var_std[j] -= v[i * W + j] * v[i * W + j];

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

    // The best grid fit so far, its factor swapped into factorSpare_;
    // with no winner the hyperparameters we came in with stay. Every
    // grid point factors into whichever of the two buffers is not the
    // best's, reshaped in place, so past the first search no factor
    // is allocated.
    Hyper best = hyper_;
    double best_lik = -1e300;
    bool best_exact = false;
    bool have_best = false;
    std::vector<double> best_alpha;

    // cholesky() reads only the lower triangle gram() writes.
    Matrix &k = gramScratch_;
    k.resizeBuffer(n, n);
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
                have_best = true;
                std::swap(factorSpare_, choleskyLower_);
                std::swap(best_alpha, alpha_);
            }
        }
    }

    if (!have_best) {
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
    std::swap(choleskyLower_, factorSpare_);
    alpha_ = std::move(best_alpha);
    logLik_ = best_lik;
    prepareBounds(0);
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
