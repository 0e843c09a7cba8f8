#include "tensor/kernels/kernels.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

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
    metrics::Gauge &lanes = metrics::gauge("gemm.vector_lanes");

    /** Records the doubles per vector of the dispatched micro-kernel. */
    GemmMetrics()
    {
        const GemmIsa isa = gemmIsa();
        lanes.set(isa == GemmIsa::Avx512 ? 8 : isa == GemmIsa::Avx2 ? 4
                                                                     : 1);
    }
};

GemmMetrics &
gemmMetrics()
{
    static GemmMetrics m;
    return m;
}

/** Register-tile extents of the AVX2 / std::fma micro-kernel. */
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;

// ---------------------------------------------------------------- //
// The one GEMM micro-kernel. A tile of outputs (up to 4 x 8 on AVX2
// or std::fma lanes, up to 8 x 16 on AVX-512) lives in registers; for
// each k in increasing order it broadcasts A(i, k) against the
// contiguous row B(k, j..j+w) and updates every output with one fused
// multiply-add. Every element is therefore exactly
//   fma(a[k-1], b[k-1], ... fma(a[0], b[0], init))
// whatever the tile shape, lane width, compiler or optimization
// level: the TU is built with -ffp-contract=off (see the tensor
// CMakeLists), so no fusion happens that is not written here.
// ---------------------------------------------------------------- //

/** The edge of a tile whose width is a template argument: all live. */
struct WholeRow
{
};

/**
 * W adjacent outputs of one tile row. With AVX2+FMA they are held as
 * up to two 4-wide vectors, then a 2-wide and a 1-wide piece as the
 * low bits of W ask; elsewhere as W scalars. Either way column t only
 * ever sees fma(x, b[t], acc[t]), so the split never changes a bit.
 */
template <std::size_t W>
struct Lanes
{
    using Edge = WholeRow;

#if defined(__AVX2__) && defined(__FMA__)
    static constexpr std::size_t kTail = W / 4 * 4;
    __m256d lo{}, hi{};
    __m128d pair{};
    double single = 0.0;

    void
    load(const double *p, WholeRow)
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
    store(double *p, WholeRow) const
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

    void load(const double *p, WholeRow) { std::copy(p, p + W, v); }
    void store(double *p, WholeRow) const { std::copy(v, v + W, p); }

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
 * RI tile rows of lanes L each, as a recursive aggregate rather than
 * an array so the compiler keeps every accumulator in a register.
 */
template <std::size_t RI, class L>
struct Rows
{
    using Edge = typename L::Edge;

    L head;
    Rows<RI - 1, L> tail;

    void
    load(const double *p, std::size_t stride, Edge e)
    {
        head.load(p, e);
        tail.load(p + stride, stride, e);
    }

    void
    fmaInto(const double *x, std::size_t stride, const L &b)
    {
        head.fmaInto(x, b);
        tail.fmaInto(x + stride, stride, b);
    }

    void
    store(double *p, std::size_t stride, Edge e) const
    {
        head.store(p, e);
        tail.store(p + stride, stride, e);
    }
};

template <class L>
struct Rows<0, L>
{
    using Edge = typename L::Edge;

    void load(const double *, std::size_t, Edge) {}
    void fmaInto(const double *, std::size_t, const L &) {}
    void store(double *, std::size_t, Edge) const {}
};

/** The RI-row output tile of lanes L at (i, j). */
template <std::size_t RI, class L>
void
tile(const Operands &op, std::size_t i, std::size_t j,
     typename L::Edge e)
{
    const std::size_t k = op.k, n = op.n, aRow = op.aRow, aK = op.aK;
    Rows<RI, L> acc;
    if (op.init != nullptr)
        acc.load(op.init + i * op.initRow + j, op.initRow, e);
    const double *a = op.a + i * aRow;
    const double *b = op.b + j;
    for (std::size_t kk = 0; kk < k; ++kk) {
        L bk;
        bk.load(b, e);
        acc.fmaInto(a, aRow, bk);
        a += aK;
        b += n;
    }
    acc.store(op.c + i * n + j, n, e);
}

using TileFn = void (*)(const Operands &, std::size_t, std::size_t,
                        WholeRow);

template <std::size_t RI, std::size_t... W>
constexpr std::array<TileFn, kTileCols>
tileRow(std::index_sequence<W...>)
{
    return {&tile<RI, Lanes<W + 1>>...};
}

/** kTiles[ri - 1][w - 1] is the ri x w tile. */
constexpr std::array<std::array<TileFn, kTileCols>, kTileRows> kTiles =
    {tileRow<1>(std::make_index_sequence<kTileCols>()),
     tileRow<2>(std::make_index_sequence<kTileCols>()),
     tileRow<3>(std::make_index_sequence<kTileCols>()),
     tileRow<4>(std::make_index_sequence<kTileCols>())};

/** Cover all m x n outputs with AVX2 / std::fma tiles. */
void
runPortable(const Operands &op, std::size_t m)
{
    for (std::size_t i = 0; i < m; i += kTileRows) {
        const std::size_t ri = std::min(kTileRows, m - i);
        for (std::size_t j = 0; j < op.n; j += kTileCols)
            kTiles[ri - 1][std::min(kTileCols, op.n - j) - 1](op, i, j,
                                                              {});
    }
}

#if defined(__AVX2__) && defined(__FMA__)
// The AVX-512 micro-kernel: tiles of up to 8 rows x 16 columns, each
// row one or two 8-wide vectors, 16 accumulators in all. Only the
// functions marked target("avx512f") may touch a 512-bit register,
// and run() enters them only when the CPU reports avx512f, so the
// binary still runs on an AVX2-only CPU.

constexpr std::size_t kTile512Rows = 8;
constexpr std::size_t kTile512Cols = 16;

/**
 * One tile row of V 8-wide vectors (V = 1 or 2). The mask selects
 * the live lanes of the last vector: a masked-off lane is never read
 * (it loads as +0.0, so no fault is possible) and never written, and
 * column t again only ever sees fma(x, b[t], acc[t]).
 */
template <std::size_t V>
struct Lanes512
{
    using Edge = __mmask8;

    __m512d lo{}, hi{};

    [[gnu::target("avx512f")]] void
    load(const double *p, __mmask8 last)
    {
        if constexpr (V == 1) {
            lo = _mm512_maskz_loadu_pd(last, p);
        } else {
            lo = _mm512_loadu_pd(p);
            hi = _mm512_maskz_loadu_pd(last, p + 8);
        }
    }

    [[gnu::target("avx512f")]] void
    store(double *p, __mmask8 last) const
    {
        if constexpr (V == 1) {
            _mm512_mask_storeu_pd(p, last, lo);
        } else {
            _mm512_storeu_pd(p, lo);
            _mm512_mask_storeu_pd(p + 8, last, hi);
        }
    }

    /** this[t] = fma(*x, b[t], this[t]) for every lane t. */
    [[gnu::target("avx512f")]] void
    fmaInto(const double *x, const Lanes512 &b)
    {
        const __m512d x8 = _mm512_set1_pd(*x);
        lo = _mm512_fmadd_pd(x8, b.lo, lo);
        if constexpr (V == 2)
            hi = _mm512_fmadd_pd(x8, b.hi, hi);
    }
};

/**
 * The RI x (8 V) tile, the last vector masked by @p last. flatten
 * inlines the generic tile and the Rows recursion into this
 * avx512f-compiled body, so the accumulators stay in registers.
 */
template <std::size_t RI, std::size_t V>
[[gnu::target("avx512f"), gnu::flatten]] void
tile512(const Operands &op, std::size_t i, std::size_t j,
        __mmask8 last)
{
    tile<RI, Lanes512<V>>(op, i, j, last);
}

using Tile512Fn = void (*)(const Operands &, std::size_t, std::size_t,
                           __mmask8);

template <std::size_t... R>
constexpr std::array<std::array<Tile512Fn, 2>, kTile512Rows>
tiles512(std::index_sequence<R...>)
{
    return {{{&tile512<R + 1, 1>, &tile512<R + 1, 2>}...}};
}

/** kTiles512[ri - 1][v - 1] is the ri-row tile of v vectors. */
constexpr std::array<std::array<Tile512Fn, 2>, kTile512Rows> kTiles512 =
    tiles512(std::make_index_sequence<kTile512Rows>());

/** Cover all m x n outputs with AVX-512 tiles, masking the last. */
[[gnu::target("avx512f")]] void
runAvx512(const Operands &op, std::size_t m)
{
    for (std::size_t i = 0; i < m; i += kTile512Rows) {
        const std::size_t ri = std::min(kTile512Rows, m - i);
        for (std::size_t j = 0; j < op.n; j += kTile512Cols) {
            const std::size_t w = std::min(kTile512Cols, op.n - j);
            const std::size_t v = (w + 7) / 8;
            const auto last =
                static_cast<__mmask8>(0xFFu >> (8 * v - w));
            kTiles512[ri - 1][v - 1](op, i, j, last);
        }
    }
}
#endif

/** Cover all m x n outputs with @p isa's tiles, ragged edges included. */
void
runOn(GemmIsa isa, const Operands &op, std::size_t m)
{
#if defined(__AVX2__) && defined(__FMA__)
    if (isa == GemmIsa::Avx512) {
        runAvx512(op, m);
        return;
    }
#endif
    runPortable(op, m);
}

void
run(const Operands &op, std::size_t m)
{
    runOn(gemmIsa(), op, m);
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

GemmIsa
gemmIsa()
{
#if defined(__AVX2__) && defined(__FMA__)
    // A function-local static: a namespace-scope initializer could run
    // before libgcc's constructor fills in the CPU model.
    static const GemmIsa isa = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx512f") ? GemmIsa::Avx512
                                                 : GemmIsa::Avx2;
    }();
    return isa;
#else
    return GemmIsa::Generic;
#endif
}

const char *
gemmIsaName(GemmIsa isa)
{
    return isa == GemmIsa::Avx512 ? "avx512"
           : isa == GemmIsa::Avx2 ? "avx2"
                                  : "generic";
}

bool
gemmOn(GemmIsa isa, std::size_t m, std::size_t n, std::size_t k,
       const double *a, std::size_t aRow, std::size_t aK,
       const double *b, const double *init, std::size_t initRow,
       double *c)
{
    // The dispatched table, and AVX2 on a CPU that also has AVX-512.
    const GemmIsa native = gemmIsa();
    if (isa != native &&
        !(isa == GemmIsa::Avx2 && native == GemmIsa::Avx512))
        return false;
    runOn(isa, {k, n, a, aRow, aK, b, init, initRow, c}, m);
    return true;
}

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
