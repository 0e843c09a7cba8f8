#include "tensor/kernels/kernels.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "util/metrics.hh"

namespace vaesa::kernels {

namespace {

/** Hot-path instruments, resolved once per process. */
struct GemmMetrics
{
    metrics::Counter &calls = metrics::counter("gemm.calls");
    metrics::Counter &flops = metrics::counter("gemm.flops");
    metrics::Histogram &ns = metrics::histogram("gemm.ns");
};

GemmMetrics &
gemmMetrics()
{
    static GemmMetrics m;
    return m;
}

/** Register-tile extents of the micro-kernel. */
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;

// ---------------------------------------------------------------- //
// The one GEMM micro-kernel. A tile of up to 4 x 8 outputs lives in
// registers; for each k in increasing order it broadcasts A(i, k)
// against the contiguous row B(k, j..j+w) and updates every output
// with one fused multiply-add. Every element is therefore exactly
//   fma(a[k-1], b[k-1], ... fma(a[0], b[0], init))
// whatever the tile shape, lane width, compiler or optimization
// level: the TU is built with -ffp-contract=off (see the tensor
// CMakeLists), so no fusion happens that is not written here.
// ---------------------------------------------------------------- //

/**
 * W adjacent outputs of one tile row. With AVX2+FMA they are held as
 * up to two 4-wide vectors, then a 2-wide and a 1-wide piece as the
 * low bits of W ask; elsewhere as W scalars. Either way column t only
 * ever sees fma(x, b[t], acc[t]), so the split never changes a bit.
 */
template <std::size_t W>
struct Lanes
{
#if defined(__AVX2__) && defined(__FMA__)
    static constexpr std::size_t kTail = W / 4 * 4;
    __m256d lo{}, hi{};
    __m128d pair{};
    double single = 0.0;

    void
    load(const double *p)
    {
        if constexpr (W >= 4)
            lo = _mm256_loadu_pd(p);
        if constexpr (W >= 8)
            hi = _mm256_loadu_pd(p + 4);
        if constexpr ((W & 2) != 0)
            pair = _mm_loadu_pd(p + kTail);
        if constexpr ((W & 1) != 0)
            single = p[W - 1];
    }

    void
    store(double *p) const
    {
        if constexpr (W >= 4)
            _mm256_storeu_pd(p, lo);
        if constexpr (W >= 8)
            _mm256_storeu_pd(p + 4, hi);
        if constexpr ((W & 2) != 0)
            _mm_storeu_pd(p + kTail, pair);
        if constexpr ((W & 1) != 0)
            p[W - 1] = single;
    }

    /** this[t] = fma(*x, b[t], this[t]) for every t < W. */
    void
    fmaInto(const double *x, const Lanes &b)
    {
        const __m256d x4 = _mm256_broadcast_sd(x);
        if constexpr (W >= 4)
            lo = _mm256_fmadd_pd(x4, b.lo, lo);
        if constexpr (W >= 8)
            hi = _mm256_fmadd_pd(x4, b.hi, hi);
        if constexpr ((W & 2) != 0)
            pair = _mm_fmadd_pd(_mm256_castpd256_pd128(x4), b.pair,
                                pair);
        if constexpr ((W & 1) != 0)
            single = std::fma(*x, b.single, single);
    }
#else
    double v[W] = {};

    void load(const double *p) { std::copy(p, p + W, v); }
    void store(double *p) const { std::copy(v, v + W, p); }

    void
    fmaInto(const double *x, const Lanes &b)
    {
        for (std::size_t t = 0; t < W; ++t)
            v[t] = std::fma(*x, b.v[t], v[t]);
    }
#endif
};

/**
 * One GEMM call as C (m x n) = A * B over k: A(i, kk) sits at
 * a[i * aRow + kk * aK], row kk of B at b + kk * n, row i of C at
 * c + i * n. Each output starts from init[i * initRow + j], or from
 * +0.0 when init is null.
 */
struct Operands
{
    std::size_t k, n;
    const double *a;
    std::size_t aRow, aK;
    const double *b;
    const double *init;
    std::size_t initRow;
    double *c;
};

/**
 * RI tile rows of W lanes each, as a recursive aggregate rather than
 * an array so the compiler keeps every accumulator in a register.
 */
template <std::size_t RI, std::size_t W>
struct Rows
{
    Lanes<W> head;
    Rows<RI - 1, W> tail;

    void
    load(const double *p, std::size_t stride)
    {
        head.load(p);
        tail.load(p + stride, stride);
    }

    void
    fmaInto(const double *x, std::size_t stride, const Lanes<W> &b)
    {
        head.fmaInto(x, b);
        tail.fmaInto(x + stride, stride, b);
    }

    void
    store(double *p, std::size_t stride) const
    {
        head.store(p);
        tail.store(p + stride, stride);
    }
};

template <std::size_t W>
struct Rows<0, W>
{
    void load(const double *, std::size_t) {}
    void fmaInto(const double *, std::size_t, const Lanes<W> &) {}
    void store(double *, std::size_t) const {}
};

/** The RI x W output tile at (i, j); RI <= 4, W <= 8. */
template <std::size_t RI, std::size_t W>
void
tile(const Operands &op, std::size_t i, std::size_t j)
{
    const std::size_t k = op.k, n = op.n, aRow = op.aRow, aK = op.aK;
    Rows<RI, W> acc;
    if (op.init != nullptr)
        acc.load(op.init + i * op.initRow + j, op.initRow);
    const double *a = op.a + i * aRow;
    const double *b = op.b + j;
    for (std::size_t kk = 0; kk < k; ++kk) {
        Lanes<W> bk;
        bk.load(b);
        acc.fmaInto(a, aRow, bk);
        a += aK;
        b += n;
    }
    acc.store(op.c + i * n + j, n);
}

using TileFn = void (*)(const Operands &, std::size_t, std::size_t);

template <std::size_t RI, std::size_t... W>
constexpr std::array<TileFn, kTileCols>
tileRow(std::index_sequence<W...>)
{
    return {&tile<RI, W + 1>...};
}

/** kTiles[ri - 1][w - 1] is the ri x w tile. */
constexpr std::array<std::array<TileFn, kTileCols>, kTileRows> kTiles =
    {tileRow<1>(std::make_index_sequence<kTileCols>()),
     tileRow<2>(std::make_index_sequence<kTileCols>()),
     tileRow<3>(std::make_index_sequence<kTileCols>()),
     tileRow<4>(std::make_index_sequence<kTileCols>())};

/** Cover all m x n outputs with tiles, ragged edges included. */
void
run(const Operands &op, std::size_t m)
{
    for (std::size_t i = 0; i < m; i += kTileRows) {
        const std::size_t ri = std::min(kTileRows, m - i);
        for (std::size_t j = 0; j < op.n; j += kTileCols)
            kTiles[ri - 1][std::min(kTileCols, op.n - j) - 1](op, i,
                                                              j);
    }
}

/**
 * dst (cols x rows) = src (rows x cols) transposed, in bands of
 * kTileCols source rows so each write fills part of one cache line.
 */
void
transpose(const double *src, std::size_t rows, std::size_t cols,
          double *dst)
{
    for (std::size_t r0 = 0; r0 < rows; r0 += kTileCols) {
        const std::size_t r1 = std::min(rows, r0 + kTileCols);
        for (std::size_t c = 0; c < cols; ++c)
            for (std::size_t r = r0; r < r1; ++r)
                dst[c * rows + r] = src[r * cols + c];
    }
}

/** Count one public GEMM entry: m x n outputs, k-long reductions. */
void
noteGemm(std::size_t m, std::size_t n, std::size_t k)
{
    GemmMetrics &gm = gemmMetrics();
    gm.calls.inc();
    gm.flops.inc(static_cast<std::uint64_t>(2) * m * n * k);
}

} // namespace

void
gemm(std::size_t m, std::size_t n, std::size_t k, const double *a,
     const double *b, double *c, bool accumulate)
{
    noteGemm(m, n, k);
    const metrics::ScopedTimer timer(gemmMetrics().ns);
    run({k, n, a, k, 1, b, accumulate ? c : nullptr, n, c}, m);
}

void
gemmTransA(std::size_t m, std::size_t n, std::size_t k,
           const double *a, const double *b, double *c,
           bool accumulate)
{
    noteGemm(m, n, k);
    const metrics::ScopedTimer timer(gemmMetrics().ns);
    run({k, n, a, 1, m, b, accumulate ? c : nullptr, n, c}, m);
}

void
gemmTransB(std::size_t m, std::size_t n, std::size_t k,
           const double *a, const double *b, double *c,
           bool accumulate)
{
    noteGemm(m, n, k);
    const metrics::ScopedTimer timer(gemmMetrics().ns);
    std::vector<double> bt(k * n);
    transpose(b, n, k, bt.data());
    run({k, n, a, k, 1, bt.data(), accumulate ? c : nullptr, n, c}, m);
}

void
linearForward(std::size_t batch, std::size_t in, std::size_t out,
              const double *x, const double *w, const double *b,
              double *wt, double *y)
{
    noteGemm(batch, out, in);
    const metrics::ScopedTimer timer(gemmMetrics().ns);
    transpose(w, out, in, wt);
    run({in, out, x, in, 1, wt, b, 0, y}, batch);
}

void
addColSums(const double *x, std::size_t rows, std::size_t cols,
           double *sums)
{
    for (std::size_t r = 0; r < rows; ++r) {
        const double *row = x + r * cols;
        for (std::size_t c = 0; c < cols; ++c)
            sums[c] += row[c];
    }
}

// The elementwise loops below are straight-line: the TU is built
// without errno or FP-trap semantics, so each ?: (both arms read,
// neither with a side effect) becomes a blend and std::sqrt the
// correctly rounded vector square root; no value changes.

void
leakyReluForward(double *x, std::size_t n, double slope)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] = x[i] > 0.0 ? x[i] : slope * x[i];
}

void
leakyReluBackward(double *grad, const double *out, std::size_t n,
                  double slope)
{
    for (std::size_t i = 0; i < n; ++i)
        grad[i] *= out[i] > 0.0 ? 1.0 : slope;
}

void
sigmoidForward(double *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] = 1.0 / (1.0 + std::exp(-x[i]));
}

void
sigmoidBackward(double *grad, const double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        grad[i] *= out[i] * (1.0 - out[i]);
}

void
tanhForward(double *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        x[i] = std::tanh(x[i]);
}

void
tanhBackward(double *grad, const double *out, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        grad[i] *= 1.0 - out[i] * out[i];
}

void
adamUpdate(std::size_t n, const double *g, double *m, double *v,
           double *w, AdamCoefficients c)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double gi = g[i];
        const double mi = c.beta1 * m[i] + c.oneMinusBeta1 * gi;
        const double vi = c.beta2 * v[i] + c.oneMinusBeta2 * gi * gi;
        m[i] = mi;
        v[i] = vi;
        const double m_hat = mi / c.bc1;
        const double v_hat = vi / c.bc2;
        w[i] -= c.lr * m_hat / (std::sqrt(v_hat) + c.eps);
    }
}

} // namespace vaesa::kernels
