/*
 * GaussianProcess's guaranteed bounds (boundBatch, refineBatch) and
 * the per-fit state behind them. This translation unit has its own
 * flags (src/dse/CMakeLists.txt) so the bound pass, a constant-width
 * loop across candidates, vectorizes. Nothing here feeds a
 * prediction: gp.cc, whose rounding the BO golden pins, keeps the
 * baseline flags, and every margin below holds whatever the compiler
 * contracts or reorders within one bound.
 *
 * u = epsilon / 2 is the unit roundoff. A sum of m rounded terms lies
 * within gamma_m = m u / (1 - m u) of the exact sum, relative to the
 * sum of the terms' magnitudes, and the forward substitution's
 * computed v solves (L + dL) v = k* exactly for some
 * |dL| <= gamma_n |L| (Higham, Accuracy and Stability of Numerical
 * Algorithms, Thm 8.5). Its squared norm is then exactly
 * k*^T M^-1 k* with M = (L + dL)(L + dL)^T.
 */

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>

#include "dse/gp.hh"
#include "tensor/kernels/kernels.hh"
#include "util/logging.hh"

namespace vaesa {

namespace {

/** Relative slack on each kernel value of the bound pass. Against
 *  predictTileOf()'s value it covers expNonPositive()'s error
 *  (< 2e-14), std::exp's ulp, an arg a few ulps away from the
 *  predicted one (|arg| <= 708, so under 1e-12 of exp), a poly a few
 *  ulps away, and the product's rounding: together under 1e-12. */
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

/** Below this argument std::exp leaves the normal range
 *  (e^-708.4 = DBL_MIN) and its error is absolute. The bound pass
 *  takes such a kernel value as 0; the value predictTileOf() computes
 *  there is at most kFarKernel, the Matern-5/2 kernel at
 *  arg = kExpFloor ((1 + 708 + 708^2 / 3) e^-708 = 5.6e-303, and it
 *  only falls past it), plus an ulp. */
constexpr double kExpFloor = -708.0;
constexpr double kFarKernel = 1e-302;

/** Training points in refineBatch()'s subset, and the relative pivot
 *  below which its small factorization drops a point. */
constexpr std::size_t kSubsetPoints = 4;
constexpr double kPivotFloor = 1e-9;

/**
 * e^x for x in [kExpFloor, 0], from multiplies, adds and integer bit
 * operations only, so a loop over it vectorizes. x = k ln 2 + r with
 * k = round(x log2 e), read off the low bits of x log2 e + 1.5 2^52,
 * and r reduced Cody-Waite style (k ln2Hi is exact, as ln2Hi has 33
 * significant bits and |k| <= 1021), so |r| <= ln 2 / 2 up to two
 * roundings. e^r is its degree-11 Taylor polynomial: the remainder is
 * at most |r|^12 / 12! e^|r| < 9e-15, under 1.3e-14 relative, plus
 * under 23 u of Horner rounding. 2^k, a normal number for
 * k >= -1021, is built in the exponent field, and the product by it
 * is exact. A NaN x gives NaN.
 */
inline double
expNonPositive(double x)
{
    constexpr double shifter = 0x1.8p52;
    constexpr double log2e = 1.4426950408889634;
    constexpr double ln2_hi = 0x1.62e42feep-1;
    constexpr double ln2_lo = 0x1.a39ef35793c76p-33;
    const double t = x * log2e + shifter;
    const double k = t - shifter;
    const double r = (x - k * ln2_hi) - k * ln2_lo;
    double p = 1.0 / 39916800.0;
    p = p * r + 1.0 / 3628800.0;
    p = p * r + 1.0 / 362880.0;
    p = p * r + 1.0 / 40320.0;
    p = p * r + 1.0 / 5040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    // t's bits are those of 1.5 2^52 plus k, whose low 12 bits are
    // clear; adding the exponent bias leaves k + 1023 there.
    const std::uint64_t scale =
        (std::bit_cast<std::uint64_t>(t) + 1023) << 52;
    return p * std::bit_cast<double>(scale);
}

/**
 * The O(n) sums behind boundBatch() for W candidates (cand is dim x
 * W), accumulated onto zeroed outputs. Each kernel value k_ij is
 * recomputed to within kKernelSlack of predictTileOf()'s without a
 * table lookup or a libm call, or taken as 0 past kExpFloor. Then
 * sum[j] = sum_i alpha_i k_ij, mag[j] = sum_i |alpha_i| k_ij and
 * reach[j] = max_i k_ij^2 (1 - kKernelSlack)^2 (1 - err) / norm2_i,
 * the lower bracket end's Cauchy-Schwarz term. The squared distance
 * is fillKStar()'s.
 */
template <std::size_t W>
void
boundSums(const double *xs, std::size_t n, std::size_t dim,
          const double *cand, double ls, const double *alpha,
          const double *norm2, double err, double *sum, double *mag,
          double *reach)
{
    // arg and poly as kernelTerms() has them, up to a few ulps.
    const double matern_scale = std::sqrt(5.0) / ls;
    const double low_end = (1.0 - kKernelSlack) * (1.0 - kKernelSlack);
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
        const double a_abs = std::abs(a);
        const double w = low_end * (1.0 - err) / norm2[i];
        for (std::size_t j = 0; j < W; ++j) {
            const double s = std::sqrt(d2[j]) * matern_scale;
            const double poly = 1.0 + s + s * s * (1.0 / 3.0);
            const double arg = -s;
            // Selects, not std::max's reference: these if-convert.
            const bool far = arg < kExpFloor;
            const double e = expNonPositive(far ? kExpFloor : arg);
            const double k = far ? 0.0 : poly * e;
            sum[j] += a * k;
            mag[j] += a_abs * k;
            const double r = k * k * w;
            reach[j] = reach[j] < r ? r : reach[j];
        }
    }
}

#if defined(__AVX2__) && defined(__FMA__)
/**
 * boundSums() on AVX-512 lanes. flatten inlines it and
 * expNonPositive() into this avx512f body, so its candidate loops run
 * eight lanes wide. A candidate is still one lane whose sums run over
 * the training points in ascending i, so the bounds are the default
 * body's bit for bit (AcquisitionBound.Avx512BoundsMatchAvx2BitForBit).
 */
template <std::size_t W>
[[gnu::target("avx512f,prefer-vector-width=512"), gnu::flatten]] void
boundSums512(const double *xs, std::size_t n, std::size_t dim,
             const double *cand, double ls, const double *alpha,
             const double *norm2, double err, double *sum, double *mag,
             double *reach)
{
    boundSums<W>(xs, n, dim, cand, ls, alpha, norm2, err, sum, mag,
                 reach);
}
#endif

/**
 * boundSums() on @p isa's body: the AVX-512 clone for a full tile on
 * Avx512, else the default one. A one-candidate tile has no lanes to
 * fill, and the compiler vectorizes its loop over the dimensions
 * differently per target, leaving some products unfused that the
 * other target fuses; the default body keeps it bit for bit.
 */
template <std::size_t W>
void
boundSumsOn(kernels::GemmIsa isa, const double *xs, std::size_t n,
            std::size_t dim, const double *cand, double ls,
            const double *alpha, const double *norm2, double err,
            double *sum, double *mag, double *reach)
{
#if defined(__AVX2__) && defined(__FMA__)
    if constexpr (W > 1) {
        if (isa == kernels::GemmIsa::Avx512) {
            boundSums512<W>(xs, n, dim, cand, ls, alpha, norm2, err,
                            sum, mag, reach);
            return;
        }
    }
#endif
    boundSums<W>(xs, n, dim, cand, ls, alpha, norm2, err, sum, mag,
                 reach);
}

/** sum_k a[k] b[k] over len terms, in four interleaved partial sums
 *  so the additions do not wait on each other. Any summation order
 *  keeps the result within gamma_len sum |a[k] b[k]| of the exact
 *  sum. */
double
dotProduct(const double *a, const double *b, std::size_t len)
{
    double acc[4] = {};
    std::size_t k = 0;
    for (; k + 4 <= len; k += 4)
        for (std::size_t l = 0; l < 4; ++l)
            acc[l] += a[k + l] * b[k + l];
    for (; k < len; ++k)
        acc[0] += a[k] * b[k];
    return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

/** The computed variance is at most prior (1 + gamma) minus
 *  (1 - gamma) sum v_i^2; given reach <= (1 - gamma) sum v_i^2, this
 *  bounds it, after the de-standardization's rounding. The prior is
 *  the very kernelValue() predictTileOf() starts from. std::max
 *  keeps a NaN. */
double
varianceUpper(double prior, double reach, double err, double y_std)
{
    const double var_std =
        std::max(prior * (1.0 + err) - reach, 0.0) + kUnderflowSlack;
    return y_std * y_std * var_std * (1.0 + err) + kUnderflowSlack;
}

} // namespace

void
GaussianProcess::prepareBounds(std::size_t fromRow)
{
    // Cauchy-Schwarz in the M^-1 inner product gives
    // k^T M^-1 k >= k_i^2 / M_ii for every i. M's row norms are at
    // most (1 + gamma_n) times L's, and the row norm below is itself
    // rounded; boundSums()' (1 - err) factor absorbs both. The norms
    // come from the stored factor, so a jittered factor stays
    // covered. Rows below fromRow are the previous factor's rows bit
    // for bit, so their norms stand.
    const std::size_t n = sampleCount();
    const double *lower = choleskyLower_.data();
    bool finite = std::isfinite(yMean_) && std::isfinite(yStd_);
    rowNorm2_.resize(n);
    for (std::size_t i = fromRow; i < n; ++i) {
        double norm2 = 0.0;
        for (std::size_t k = 0; k <= i; ++k)
            norm2 += lower[i * n + k] * lower[i * n + k];
        rowNorm2_[i] = norm2;
    }
    for (std::size_t i = 0; i < n; ++i) {
        const double norm2 = rowNorm2_[i];
        finite = finite && std::isfinite(alpha_[i]) && norm2 > 0.0 &&
                 std::isfinite(1.0 / norm2);
    }
    boundable_ = finite;
}

template <std::size_t W>
void
GaussianProcess::boundTileOf(kernels::GemmIsa isa,
                             const std::vector<double> *xs, Bound *out,
                             double *cand) const
{
    const std::size_t n = sampleCount();
    // The kernel scales assume a positive lengthscale (setHyper() may
    // have changed it since the fit).
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
    const double err =
        kRoundingUlps * static_cast<double>(n + 4) * DBL_EPSILON;
    double sum[W] = {};
    double mag[W] = {};
    double reach[W] = {};
    boundSumsOn<W>(isa, xs_.data(), n, dim_, cand, hyper_.lengthscale,
                   alpha_.data(), rowNorm2_.data(), err, sum, mag, reach);
    double alpha_abs = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        alpha_abs += std::abs(alpha_[i]);

    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t j = 0; j < W; ++j) {
        if (!finite[j]) {
            out[j] = {nan, nan};
            continue;
        }
        // The computed mean is at least the exact sum of
        // alpha_i k_ij less kKernelSlack mag[j] (the kernel values'
        // error) and 2 kFarKernel sum |alpha_i| (the values taken as
        // 0, and their share of the rounding), less two rounded n-term
        // sums (this one and predictTileOf's), each within
        // gamma_n * mag[j], less the rounding of yMean_ + yStd_ * mean.
        const double mean = yMean_ + yStd_ * (sum[j] - kKernelSlack * mag[j]);
        const double mean_lower =
            mean - err * (std::abs(yMean_) + 2.0 * yStd_ * mag[j]) -
            yStd_ * 2.0 * kFarKernel * alpha_abs -
            kUnderflowSlack * (1.0 + yStd_);
        const double prior = kernelValue(xs[j].data(), xs[j].data());
        out[j] = {mean_lower, varianceUpper(prior, reach[j], err, yStd_)};
    }
}

void
GaussianProcess::boundBatch(std::span<const std::vector<double>> xs,
                            std::span<Bound> out) const
{
    boundBatchOn(kernels::gemmIsa(), xs, out);
}

bool
GaussianProcess::boundBatchOn(kernels::GemmIsa isa,
                              std::span<const std::vector<double>> xs,
                              std::span<Bound> out) const
{
    // The dispatched body, and the default one on a CPU that also has
    // AVX-512.
    const kernels::GemmIsa native = kernels::gemmIsa();
    if (isa != native &&
        !(isa == kernels::GemmIsa::Avx2 &&
          native == kernels::GemmIsa::Avx512))
        return false;
    if (sampleCount() == 0)
        panic("GaussianProcess::boundBatch before fit");
    if (out.size() != xs.size())
        panic("GaussianProcess::boundBatch: ", xs.size(),
              " points but ", out.size(), " outputs");
    const std::size_t full = xs.size() - xs.size() % predictTile;
    std::vector<double> cand(dim_ * (full ? predictTile : 1));
    for (std::size_t j = 0; j < full; j += predictTile)
        boundTileOf<predictTile>(isa, &xs[j], &out[j], cand.data());
    for (std::size_t j = full; j < xs.size(); ++j)
        boundTileOf<1>(isa, &xs[j], &out[j], cand.data());
    return true;
}

void
GaussianProcess::refineBatch(std::span<const std::vector<double>> xs,
                             std::span<Bound> bounds) const
{
    if (sampleCount() == 0)
        panic("GaussianProcess::refineBatch before fit");
    if (bounds.size() != xs.size())
        panic("GaussianProcess::refineBatch: ", xs.size(),
              " points but ", bounds.size(), " bounds");
    const std::size_t n = sampleCount();
    const std::size_t m = std::min(kSubsetPoints, n);
    const double *lower = choleskyLower_.data();
    const double err =
        kRoundingUlps * static_cast<double>(n + 4) * DBL_EPSILON;
    // Covers the subset value's roundings: (3 n + m^2 + 5) u on B^2
    // and 2 m u on sum |a_p k_p| (see below), with the same guard.
    const double err_subset =
        kRoundingUlps * static_cast<double>(n + m * m + 4) * DBL_EPSILON;
    // The training inputs dimension-major, so each point's distances
    // to all of them are one vectorized pass.
    std::vector<double> columns(dim_ * n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t d = 0; d < dim_; ++d)
            columns[d * n + i] = xs_[i * dim_ + d];
    std::vector<double> dist2(n);
    for (std::size_t j = 0; j < xs.size(); ++j) {
        if (xs[j].size() != dim_)
            panic("GaussianProcess::refineBatch: point of dimension ",
                  xs[j].size(), ", fitted ", dim_);
        // A NaN bound promises nothing and stays so; m = 1 is the
        // bound boundBatch() already took.
        Bound &bound = bounds[j];
        if (m < 2 || std::isnan(bound.meanLower) ||
            std::isnan(bound.varUpper))
            continue;
        const double *x = xs[j].data();

        // S: the m nearest training points, nearest first.
        std::fill(dist2.begin(), dist2.end(), 0.0);
        for (std::size_t d = 0; d < dim_; ++d) {
            const double *col = columns.data() + d * n;
            for (std::size_t i = 0; i < n; ++i)
                dist2[i] += (x[d] - col[i]) * (x[d] - col[i]);
        }
        std::size_t s[kSubsetPoints] = {};
        double dist[kSubsetPoints] = {};
        std::size_t size = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const double d = dist2[i];
            if (size == m && !(d < dist[m - 1]))
                continue;
            std::size_t p = size < m ? size++ : m - 1;
            for (; p > 0 && d < dist[p - 1]; --p) {
                dist[p] = dist[p - 1];
                s[p] = s[p - 1];
            }
            dist[p] = d;
            s[p] = i;
        }

        // G = rows S of L L^T from the stored factor's rows (G_pp is
        // prepareBounds()' row norm), factored as c c^T. A point whose
        // pivot is not clearly positive is dropped: any a is valid,
        // the solve only has to keep it finite.
        double g[kSubsetPoints][kSubsetPoints] = {};
        double c[kSubsetPoints][kSubsetPoints] = {};
        double ks[kSubsetPoints] = {};
        std::size_t kept = 0;
        for (std::size_t p = 0; p < size; ++p) {
            const std::size_t i = s[p];
            for (std::size_t q = 0; q < kept; ++q) {
                const std::size_t t = s[q];
                g[kept][q] = g[q][kept] =
                    dotProduct(lower + i * n, lower + t * n,
                               std::min(i, t) + 1);
            }
            g[kept][kept] = rowNorm2_[i];
            double pivot = g[kept][kept];
            for (std::size_t q = 0; q < kept; ++q) {
                double v = g[kept][q];
                for (std::size_t r = 0; r < q; ++r)
                    v -= c[kept][r] * c[q][r];
                c[kept][q] = v / c[q][q];
                pivot -= c[kept][q] * c[kept][q];
            }
            if (!(pivot > kPivotFloor * g[kept][kept]))
                continue;
            c[kept][kept] = std::sqrt(pivot);
            // The very doubles fillKStar() puts in k*.
            ks[kept] = kernelValue(x, xs_.data() + i * dim_);
            s[kept++] = i;
        }

        // a = G^-1 k_S, to the solve's rounding.
        double a[kSubsetPoints] = {};
        for (std::size_t p = 0; p < kept; ++p) {
            double v = ks[p];
            for (std::size_t q = 0; q < p; ++q)
                v -= c[p][q] * a[q];
            a[p] = v / c[p][p];
        }
        for (std::size_t p = kept; p-- > 0;) {
            double v = a[p];
            for (std::size_t q = p + 1; q < kept; ++q)
                v -= c[q][p] * a[q];
            a[p] = v / c[p][p];
        }

        // For M positive definite and any a supported on S,
        // k^T M^-1 k >= 2 a^T k - a^T M a ((k - M a)^T M^-1 (k - M a)
        // >= 0). With B = sum_p |a_p| ||L_p||, the dL rows (each at
        // most gamma_n ||L_p||) add at most (2 gamma_n + gamma_n^2) B^2
        // to a^T M a over a^T L L^T a; the computed G entries are
        // within gamma_n ||L_p|| ||L_q|| of L L^T's, adding gamma_n B^2;
        // the quadratic form's m^2-term sum adds gamma_{m^2+2} B^2 and
        // the linear one 2 gamma_m sum |a_p k_p|. err_subset covers
        // them all, the final subtraction's rounding and B's own.
        double ak = 0.0;
        double ak_abs = 0.0;
        double gaa = 0.0;
        double b = 0.0;
        double a_abs = 0.0;
        for (std::size_t p = 0; p < kept; ++p) {
            ak += a[p] * ks[p];
            ak_abs += std::abs(a[p] * ks[p]);
            for (std::size_t q = 0; q < kept; ++q)
                gaa += a[p] * a[q] * g[p][q];
            b += std::abs(a[p]) * std::sqrt(rowNorm2_[s[p]]);
            a_abs += std::abs(a[p]);
        }
        const double sum_v2 = 2.0 * ak - gaa -
                              err_subset * (2.0 * ak_abs + b * b) -
                              kUnderflowSlack * (1.0 + a_abs * a_abs);
        if (!(sum_v2 > 0.0))
            continue;
        const double prior = kernelValue(x, x);
        bound.varUpper =
            std::min(bound.varUpper, varianceUpper(prior, sum_v2 * (1.0 - err),
                                                   err, yStd_));
    }
}

} // namespace vaesa
