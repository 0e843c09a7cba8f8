#include "tensor/kernels/triangular.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace vaesa::kernels {

namespace {

/** Rows per Cholesky panel and per solveLower() block, and columns
 *  per panel tile and per one-row step. */
constexpr std::size_t kBlock = 4;

#if defined(__AVX2__)
/** Four doubles in one AVX register. */
struct Quad
{
    __m256d v;

    static Quad load(const double *p) { return {_mm256_loadu_pd(p)}; }
    static Quad splat(double x) { return {_mm256_set1_pd(x)}; }

    static Quad
    set(double x0, double x1, double x2, double x3)
    {
        return {_mm256_setr_pd(x0, x1, x2, x3)};
    }

    void store(double *p) const { _mm256_storeu_pd(p, v); }

    /** this - x * y, the product rounded before the subtraction. */
    Quad
    minusProduct(Quad x, Quad y) const
    {
        return {_mm256_sub_pd(v, _mm256_mul_pd(x.v, y.v))};
    }

    Quad over(Quad d) const { return {_mm256_div_pd(v, d.v)}; }
};
#else
/** Four doubles, with the lane-wise operations of the AVX version. */
struct Quad
{
    std::array<double, kBlock> v;

    static Quad load(const double *p) { return {{p[0], p[1], p[2], p[3]}}; }
    static Quad splat(double x) { return {{x, x, x, x}}; }

    static Quad
    set(double x0, double x1, double x2, double x3)
    {
        return {{x0, x1, x2, x3}};
    }

    void store(double *p) const { std::copy(v.begin(), v.end(), p); }

    Quad
    minusProduct(Quad x, Quad y) const
    {
        Quad r;
        for (std::size_t t = 0; t < kBlock; ++t)
            r.v[t] = v[t] - x.v[t] * y.v[t];
        return r;
    }

    Quad
    over(Quad d) const
    {
        Quad r;
        for (std::size_t t = 0; t < kBlock; ++t)
            r.v[t] = v[t] / d.v[t];
        return r;
    }
};
#endif

/** Whether a diagonal chain's result can be square-rooted. */
bool
pivotOk(double acc)
{
    return !(acc <= 0.0 || !std::isfinite(acc));
}

// ---------------------------------------------------------------- //
// Cholesky panel: rows i0 .. i0+3. Left of its diagonal block every
// column reads only finished rows, so W columns at a time run as a
// 4 x W register tile: a vector per column holds the four rows'
// chains, and each k loads the four rows' L(i, k) from a k-major
// copy of the panel (panel[k * 4 + r] = L(i0 + r, k)) and broadcasts
// each column's L(j, k).
// ---------------------------------------------------------------- //

/** Columns [j0, j0 + W) of the panel rows into the panel copy. */
template <std::size_t W>
void
panelTile(const double *a, const double *l, std::size_t n,
          std::size_t i0, std::size_t j0, double *panel)
{
    const double *ai = a + i0 * n + j0;
    Quad acc[W];
    const double *lj[W];
    for (std::size_t c = 0; c < W; ++c) {
        lj[c] = l + (j0 + c) * n;
        acc[c] = Quad::set(ai[c], ai[n + c], ai[2 * n + c],
                           ai[3 * n + c]);
    }
    for (std::size_t k = 0; k < j0; ++k) {
        const Quad p = Quad::load(panel + k * kBlock);
        for (std::size_t c = 0; c < W; ++c)
            acc[c] = acc[c].minusProduct(p, Quad::splat(lj[c][k]));
    }
    // Inside the tile, column j0 + c also subtracts the tile's
    // columns left of it, which are finished first.
    for (std::size_t c = 0; c < W; ++c) {
        for (std::size_t k = j0; k < j0 + c; ++k)
            acc[c] = acc[c].minusProduct(Quad::load(panel + k * kBlock),
                                         Quad::splat(lj[c][k]));
        acc[c]
            .over(Quad::splat(lj[c][j0 + c]))
            .store(panel + (j0 + c) * kBlock);
    }
}

/** The panel's own 4 x 4 lower triangle: its chains left of the
 *  block run as one tile, then each column is finished in turn. */
bool
panelDiagonal(const double *a, std::size_t n, std::size_t i0,
              double *panel)
{
    const double *ai = a + i0 * n + i0;
    Quad acc[kBlock];
    // Lane r of column c is kept only on or below the diagonal
    // (r >= c); above it the lane starts from 0 rather than from a's
    // upper triangle, and panel entries there are still the buffer's
    // zeros, as no panel writes them.
    for (std::size_t c = 0; c < kBlock; ++c)
        acc[c] = Quad::set(c == 0 ? ai[0] : 0.0, c <= 1 ? ai[n + c] : 0.0,
                           c <= 2 ? ai[2 * n + c] : 0.0, ai[3 * n + c]);
    for (std::size_t k = 0; k < i0; ++k) {
        const double *pk = panel + k * kBlock;
        const Quad p = Quad::load(pk);
        for (std::size_t c = 0; c < kBlock; ++c)
            acc[c] = acc[c].minusProduct(p, Quad::splat(pk[c]));
    }
    for (std::size_t c = 0; c < kBlock; ++c) {
        const std::size_t j = i0 + c;
        for (std::size_t k = i0; k < j; ++k)
            acc[c] = acc[c].minusProduct(Quad::load(panel + k * kBlock),
                                         Quad::splat(panel[k * kBlock + c]));
        double col[kBlock];
        acc[c].store(col);
        if (!pivotOk(col[c]))
            return false;
        double *pj = panel + j * kBlock;
        const double ljj = std::sqrt(col[c]);
        pj[c] = ljj;
        for (std::size_t r = c + 1; r < kBlock; ++r)
            pj[r] = col[r] / ljj;
    }
    return true;
}

bool
choleskyPanel(const double *a, double *l, std::size_t n,
              std::size_t i0, double *panel)
{
    std::size_t j0 = 0;
    for (; j0 + kBlock <= i0; j0 += kBlock)
        panelTile<kBlock>(a, l, n, i0, j0, panel);
    switch (i0 - j0) {
      case 1:
        panelTile<1>(a, l, n, i0, j0, panel);
        break;
      case 2:
        panelTile<2>(a, l, n, i0, j0, panel);
        break;
      case 3:
        panelTile<3>(a, l, n, i0, j0, panel);
        break;
    }
    if (!panelDiagonal(a, n, i0, panel))
        return false;
    for (std::size_t r = 0; r < kBlock; ++r) {
        double *li = l + (i0 + r) * n;
        for (std::size_t k = 0; k <= i0 + r; ++k)
            li[k] = panel[k * kBlock + r];
    }
    return true;
}

// ---------------------------------------------------------------- //
// One row alone (the factor's last rows, and the one-row extension
// of a fit that gained a sample): its columns W at a time, as W
// independent scalar chains sharing each L(i, k).
// ---------------------------------------------------------------- //

/** Columns [j0, j0 + W) of row li, whose a row is ai. */
template <std::size_t W>
void
rowTile(const double *ai, double *li, const double *l, std::size_t n,
        std::size_t j0)
{
    double acc[W];
    const double *lj[W];
    for (std::size_t c = 0; c < W; ++c) {
        lj[c] = l + (j0 + c) * n;
        acc[c] = ai[j0 + c];
    }
    for (std::size_t k = 0; k < j0; ++k) {
        const double lik = li[k];
        for (std::size_t c = 0; c < W; ++c)
            acc[c] -= lik * lj[c][k];
    }
    for (std::size_t c = 0; c < W; ++c) {
        for (std::size_t k = j0; k < j0 + c; ++k)
            acc[c] -= li[k] * lj[c][k];
        li[j0 + c] = acc[c] / lj[c][j0 + c];
    }
}

bool
choleskyRow(const double *a, double *l, std::size_t n, std::size_t i)
{
    const double *ai = a + i * n;
    double *li = l + i * n;
    // The diagonal's chain advances over each tile's columns once
    // they are final, so it runs beside the next tile's chains.
    double diag = ai[i];
    for (std::size_t j0 = 0; j0 < i; j0 += kBlock) {
        const std::size_t w = std::min(kBlock, i - j0);
        switch (w) {
          case 1:
            rowTile<1>(ai, li, l, n, j0);
            break;
          case 2:
            rowTile<2>(ai, li, l, n, j0);
            break;
          case 3:
            rowTile<3>(ai, li, l, n, j0);
            break;
          default:
            rowTile<kBlock>(ai, li, l, n, j0);
            break;
        }
        for (std::size_t k = j0; k < j0 + w; ++k)
            diag -= li[k] * li[k];
    }
    if (!pivotOk(diag))
        return false;
    li[i] = std::sqrt(diag);
    return true;
}

} // namespace

bool
cholesky(const double *a, double *l, std::size_t n, std::size_t startRow)
{
    // Zero-filled: panelDiagonal() reads the entries above each
    // panel's diagonal, which no panel writes.
    std::vector<double> panel(kBlock * n);
    std::size_t i = startRow;
    for (; i + kBlock <= n; i += kBlock)
        if (!choleskyPanel(a, l, n, i, panel.data()))
            return false;
    for (; i < n; ++i)
        if (!choleskyRow(a, l, n, i))
            return false;
    return true;
}

void
solveLower(const double *l, std::size_t n, const double *b, double *y)
{
    std::size_t i = 0;
    for (; i + kBlock <= n; i += kBlock) {
        const double *lr[kBlock];
        double acc[kBlock];
        for (std::size_t r = 0; r < kBlock; ++r) {
            lr[r] = l + (i + r) * n;
            acc[r] = b[i + r];
        }
        for (std::size_t k = 0; k < i; ++k) {
            const double yk = y[k];
            for (std::size_t r = 0; r < kBlock; ++r)
                acc[r] -= lr[r][k] * yk;
        }
        for (std::size_t r = 0; r < kBlock; ++r) {
            for (std::size_t k = i; k < i + r; ++k)
                acc[r] -= lr[r][k] * y[k];
            y[i + r] = acc[r] / lr[r][i + r];
        }
    }
    for (; i < n; ++i) {
        const double *li = l + i * n;
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= li[k] * y[k];
        y[i] = acc / li[i];
    }
}

void
solveLowerTile(const double *l, std::size_t n, double *v)
{
    constexpr std::size_t kQuads = kSolveTile / kBlock;
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = l + i * n;
        double *vi = v + i * kSolveTile;
        Quad acc[kQuads];
        for (std::size_t t = 0; t < kQuads; ++t)
            acc[t] = Quad::load(vi + t * kBlock);
        for (std::size_t k = 0; k < i; ++k) {
            const Quad lik = Quad::splat(li[k]);
            const double *vk = v + k * kSolveTile;
            for (std::size_t t = 0; t < kQuads; ++t)
                acc[t] = acc[t].minusProduct(
                    lik, Quad::load(vk + t * kBlock));
        }
        const Quad lii = Quad::splat(li[i]);
        for (std::size_t t = 0; t < kQuads; ++t)
            acc[t].over(lii).store(vi + t * kBlock);
    }
}

} // namespace vaesa::kernels
