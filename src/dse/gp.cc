#include "dse/gp.hh"

#include <cmath>

#include "tensor/linalg.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace vaesa {

GaussianProcess::GaussianProcess(Kernel kernel)
    : kernel_(kernel)
{
}

GaussianProcess::GaussianProcess(Kernel kernel, const Hyper &hyper)
    : kernel_(kernel), hyper_(hyper)
{
}

double
GaussianProcess::kernelValue(const std::vector<double> &a,
                             const std::vector<double> &b) const
{
    const double d2 = squaredDistance(a, b);
    const double ls = hyper_.lengthscale;
    switch (kernel_) {
      case Kernel::Rbf:
        return std::exp(-0.5 * d2 / (ls * ls));
      case Kernel::Matern52: {
        const double r = std::sqrt(d2) / ls;
        const double sq5r = std::sqrt(5.0) * r;
        return (1.0 + sq5r + 5.0 * r * r / 3.0) * std::exp(-sq5r);
      }
    }
    panic("GaussianProcess: bad kernel");
}

void
GaussianProcess::fit(const std::vector<std::vector<double>> &xs,
                     const std::vector<double> &ys)
{
    if (xs.empty() || xs.size() != ys.size())
        panic("GaussianProcess::fit: bad observation set (",
              xs.size(), " xs, ", ys.size(), " ys)");
    xs_ = xs;

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

    const std::size_t n = xs_.size();
    Matrix k(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            const double v = kernelValue(xs_[i], xs_[j]);
            k(i, j) = v;
            k(j, i) = v;
        }
        k(i, i) += hyper_.noiseVar;
    }

    choleskyJittered(k, choleskyLower_);
    alpha_ = solveLowerTransposed(choleskyLower_,
                                  solveLower(choleskyLower_, y_std));

    // log p(y) = -0.5 y^T alpha - sum log L_ii - n/2 log(2 pi).
    double quad = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        quad += y_std[i] * alpha_[i];
    double log_det_half = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        log_det_half += std::log(choleskyLower_(i, i));
    logLik_ = -0.5 * quad - log_det_half -
              0.5 * static_cast<double>(n) * std::log(2.0 * M_PI);
}

template <std::size_t W>
void
GaussianProcess::predictTileOf(const std::vector<double> *xs,
                               Prediction *out, double *v) const
{
    // Row i of v holds k(x_j, xs_[i]) for the W candidates side by
    // side and is overwritten in place by row i of L^-1 k*, so the
    // inner loop of the forward substitution runs across independent
    // candidates (a constant trip count the compiler vectorizes)
    // instead of down one serial dependency chain. Per candidate the
    // operation sequence is exactly the one-query textbook one.
    const std::size_t n = xs_.size();
    const double *lower = choleskyLower_.data();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < W; ++j)
            v[i * W + j] = kernelValue(xs[j], xs_[i]);

    double mean_std[W];
    double var_std[W];
    for (std::size_t j = 0; j < W; ++j) {
        mean_std[j] = 0.0;
        var_std[j] = kernelValue(xs[j], xs[j]);
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
    if (xs_.empty())
        panic("GaussianProcess::predict before fit");
    if (out.size() != xs.size())
        panic("GaussianProcess::predictBatch: ", xs.size(),
              " points but ", out.size(), " outputs");
    // Full tiles, then any remainder one candidate at a time (a tile
    // of one is the plain scalar solve, so predict() pays nothing
    // for the batching).
    const std::size_t full = xs.size() - xs.size() % predictTile;
    std::vector<double> v(xs_.size() * (full ? predictTile : 1));
    for (std::size_t j = 0; j < full; j += predictTile)
        predictTileOf<predictTile>(&xs[j], &out[j], v.data());
    for (std::size_t j = full; j < xs.size(); ++j)
        predictTileOf<1>(&xs[j], &out[j], v.data());
}

GaussianProcess::Prediction
GaussianProcess::predict(const std::vector<double> &x) const
{
    Prediction pred{};
    predictBatch({&x, 1}, {&pred, 1});
    return pred;
}

double
GaussianProcess::logMarginalLikelihood() const
{
    if (xs_.empty())
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

    Hyper best = hyper_;
    double best_lik = -1e300;
    for (double ls : lengthscales) {
        for (double nv : noises) {
            hyper_.lengthscale = ls;
            hyper_.noiseVar = nv;
            fit(xs, ys);
            if (logLik_ > best_lik) {
                best_lik = logLik_;
                best = hyper_;
            }
        }
    }
    hyper_ = best;
    fit(xs, ys);
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
