#include "tensor/kernels/kernels.hh"

#include <algorithm>
#include <cmath>

#include "util/metrics.hh"

// GCC/Clang no-alias qualifier; the public contract already forbids
// output/input aliasing, this just lets the vectorizer believe it.
#define VAESA_RESTRICT __restrict__

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

/** Register-tile extents of the blocked micro-kernels. */
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;
constexpr std::size_t kDotTileCols = 4;

// ---------------------------------------------------------------- //
// Blocked kernels. Fixed RI x RJ register tiles with the k loop
// innermost; each output element is accumulated in increasing k
// order, so results are fully deterministic. This TU is built with
// the tuned per-file flags (-O3, unrolling, AVX2+FMA on x86-64 --
// see the tensor CMakeLists), so fused multiply-adds may shift
// low-order bits relative to the plain triple loops the tests use
// as a reference; the equivalence tests bound that drift with an
// explicit tolerance.
// ---------------------------------------------------------------- //

/** C tile (RI x RJ) at (c, stride n) += A rows (stride lda) * B. */
template <std::size_t RI, std::size_t RJ>
inline void
gemmTileFull(std::size_t k, std::size_t n,
             const double *VAESA_RESTRICT a,
             const double *VAESA_RESTRICT b,
             double *VAESA_RESTRICT c, bool accumulate)
{
    // a: RI rows of length k, stride k. b: k rows, stride n.
    double acc[RI][RJ];
    for (std::size_t r = 0; r < RI; ++r)
        for (std::size_t t = 0; t < RJ; ++t)
            acc[r][t] = accumulate ? c[r * n + t] : 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        double x[RI];
        for (std::size_t r = 0; r < RI; ++r)
            x[r] = a[r * k + kk];
        const double *VAESA_RESTRICT b_row = b + kk * n;
        for (std::size_t t = 0; t < RJ; ++t) {
            const double bv = b_row[t];
            for (std::size_t r = 0; r < RI; ++r)
                acc[r][t] += x[r] * bv;
        }
    }
    for (std::size_t r = 0; r < RI; ++r)
        for (std::size_t t = 0; t < RJ; ++t)
            c[r * n + t] = acc[r][t];
}

/** Edge-tile variant with runtime extents ri <= 4, rj <= 8. */
inline void
gemmTileEdge(std::size_t ri, std::size_t rj, std::size_t k,
             std::size_t n, const double *VAESA_RESTRICT a,
             const double *VAESA_RESTRICT b,
             double *VAESA_RESTRICT c, bool accumulate)
{
    double acc[kTileRows][kTileCols];
    for (std::size_t r = 0; r < ri; ++r)
        for (std::size_t t = 0; t < rj; ++t)
            acc[r][t] = accumulate ? c[r * n + t] : 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double *VAESA_RESTRICT b_row = b + kk * n;
        for (std::size_t r = 0; r < ri; ++r) {
            const double x = a[r * k + kk];
            for (std::size_t t = 0; t < rj; ++t)
                acc[r][t] += x * b_row[t];
        }
    }
    for (std::size_t r = 0; r < ri; ++r)
        for (std::size_t t = 0; t < rj; ++t)
            c[r * n + t] = acc[r][t];
}

void
gemmBlocked(std::size_t m, std::size_t n, std::size_t k,
            const double *a, const double *b, double *c,
            bool accumulate)
{
    for (std::size_t i = 0; i < m; i += kTileRows) {
        const std::size_t ri = std::min(kTileRows, m - i);
        for (std::size_t j = 0; j < n; j += kTileCols) {
            const std::size_t rj = std::min(kTileCols, n - j);
            const double *a_tile = a + i * k;
            const double *b_tile = b + j;
            double *c_tile = c + i * n + j;
            if (ri == kTileRows && rj == kTileCols)
                gemmTileFull<kTileRows, kTileCols>(
                    k, n, a_tile, b_tile, c_tile, accumulate);
            else
                gemmTileEdge(ri, rj, k, n, a_tile, b_tile, c_tile,
                             accumulate);
        }
    }
}

/** Like gemmTileFull, but A is (k x m): x[r] loads are contiguous. */
template <std::size_t RI, std::size_t RJ>
inline void
gemmTransATileFull(std::size_t k, std::size_t m, std::size_t n,
                   const double *VAESA_RESTRICT a,
                   const double *VAESA_RESTRICT b,
                   double *VAESA_RESTRICT c, bool accumulate)
{
    double acc[RI][RJ];
    for (std::size_t r = 0; r < RI; ++r)
        for (std::size_t t = 0; t < RJ; ++t)
            acc[r][t] = accumulate ? c[r * n + t] : 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        double x[RI];
        const double *VAESA_RESTRICT a_row = a + kk * m;
        for (std::size_t r = 0; r < RI; ++r)
            x[r] = a_row[r];
        const double *VAESA_RESTRICT b_row = b + kk * n;
        for (std::size_t t = 0; t < RJ; ++t) {
            const double bv = b_row[t];
            for (std::size_t r = 0; r < RI; ++r)
                acc[r][t] += x[r] * bv;
        }
    }
    for (std::size_t r = 0; r < RI; ++r)
        for (std::size_t t = 0; t < RJ; ++t)
            c[r * n + t] = acc[r][t];
}

inline void
gemmTransATileEdge(std::size_t ri, std::size_t rj, std::size_t k,
                   std::size_t m, std::size_t n,
                   const double *VAESA_RESTRICT a,
                   const double *VAESA_RESTRICT b,
                   double *VAESA_RESTRICT c, bool accumulate)
{
    double acc[kTileRows][kTileCols];
    for (std::size_t r = 0; r < ri; ++r)
        for (std::size_t t = 0; t < rj; ++t)
            acc[r][t] = accumulate ? c[r * n + t] : 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const double *VAESA_RESTRICT a_row = a + kk * m;
        const double *VAESA_RESTRICT b_row = b + kk * n;
        for (std::size_t r = 0; r < ri; ++r) {
            const double x = a_row[r];
            for (std::size_t t = 0; t < rj; ++t)
                acc[r][t] += x * b_row[t];
        }
    }
    for (std::size_t r = 0; r < ri; ++r)
        for (std::size_t t = 0; t < rj; ++t)
            c[r * n + t] = acc[r][t];
}

void
gemmTransABlocked(std::size_t m, std::size_t n, std::size_t k,
                  const double *a, const double *b, double *c,
                  bool accumulate)
{
    for (std::size_t i = 0; i < m; i += kTileRows) {
        const std::size_t ri = std::min(kTileRows, m - i);
        for (std::size_t j = 0; j < n; j += kTileCols) {
            const std::size_t rj = std::min(kTileCols, n - j);
            const double *a_tile = a + i;
            const double *b_tile = b + j;
            double *c_tile = c + i * n + j;
            if (ri == kTileRows && rj == kTileCols)
                gemmTransATileFull<kTileRows, kTileCols>(
                    k, m, n, a_tile, b_tile, c_tile, accumulate);
            else
                gemmTransATileEdge(ri, rj, k, m, n, a_tile, b_tile,
                                   c_tile, accumulate);
        }
    }
}

/**
 * Dot-product tile for C = A * B^T: RI rows of A against RJ rows of
 * B. Each dot is split across kLanes strided partial sums so the k
 * loop maps onto packed FMAs (a single-accumulator reduction cannot
 * be vectorized without reassociating it, which the compiler rightly
 * refuses to do on its own). The lane split and the pairwise lane
 * reduction below are a fixed, code-defined order, so results stay
 * bit-identical run to run; they differ from a plain sequential dot
 * in low-order bits, which the documented equivalence tolerance
 * covers.
 */
template <std::size_t RI, std::size_t RJ>
inline void
gemmTransBTileFull(std::size_t k, std::size_t n,
                   const double *VAESA_RESTRICT a,
                   const double *VAESA_RESTRICT b,
                   double *VAESA_RESTRICT c, bool accumulate)
{
    constexpr std::size_t kLanes = 4; // one 256-bit vector of doubles
    double acc[RI][RJ][kLanes] = {};
    const std::size_t k_whole = k - k % kLanes;
    for (std::size_t kk = 0; kk < k_whole; kk += kLanes) {
        for (std::size_t r = 0; r < RI; ++r) {
            const double *VAESA_RESTRICT a_row = a + r * k + kk;
            for (std::size_t t = 0; t < RJ; ++t) {
                const double *VAESA_RESTRICT b_row = b + t * k + kk;
                for (std::size_t l = 0; l < kLanes; ++l)
                    acc[r][t][l] += a_row[l] * b_row[l];
            }
        }
    }
    for (std::size_t r = 0; r < RI; ++r) {
        for (std::size_t t = 0; t < RJ; ++t) {
            double sum = (acc[r][t][0] + acc[r][t][1]) +
                         (acc[r][t][2] + acc[r][t][3]);
            for (std::size_t kk = k_whole; kk < k; ++kk)
                sum += a[r * k + kk] * b[t * k + kk];
            c[r * n + t] = accumulate ? c[r * n + t] + sum : sum;
        }
    }
}

/**
 * Scalar variant of the dot tile for short reductions: below
 * kTransBLaneMinK the lane split costs more in remainder handling
 * than it buys, so the k = 6 input/output layers take this path.
 * Selected purely by shape, so the choice is deterministic.
 */
template <std::size_t RI, std::size_t RJ>
inline void
gemmTransBTileSmallK(std::size_t k, std::size_t n,
                     const double *VAESA_RESTRICT a,
                     const double *VAESA_RESTRICT b,
                     double *VAESA_RESTRICT c, bool accumulate)
{
    double acc[RI][RJ];
    for (std::size_t r = 0; r < RI; ++r)
        for (std::size_t t = 0; t < RJ; ++t)
            acc[r][t] = accumulate ? c[r * n + t] : 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        double x[RI];
        for (std::size_t r = 0; r < RI; ++r)
            x[r] = a[r * k + kk];
        for (std::size_t t = 0; t < RJ; ++t) {
            const double bv = b[t * k + kk];
            for (std::size_t r = 0; r < RI; ++r)
                acc[r][t] += x[r] * bv;
        }
    }
    for (std::size_t r = 0; r < RI; ++r)
        for (std::size_t t = 0; t < RJ; ++t)
            c[r * n + t] = acc[r][t];
}

/** Reductions at least this long use the lane-split dot tile. */
constexpr std::size_t kTransBLaneMinK = 16;

inline void
gemmTransBTileEdge(std::size_t ri, std::size_t rj, std::size_t k,
                   std::size_t n, const double *VAESA_RESTRICT a,
                   const double *VAESA_RESTRICT b,
                   double *VAESA_RESTRICT c, bool accumulate)
{
    double acc[kTileRows][kDotTileCols];
    for (std::size_t r = 0; r < ri; ++r)
        for (std::size_t t = 0; t < rj; ++t)
            acc[r][t] = accumulate ? c[r * n + t] : 0.0;
    for (std::size_t kk = 0; kk < k; ++kk) {
        for (std::size_t r = 0; r < ri; ++r) {
            const double x = a[r * k + kk];
            for (std::size_t t = 0; t < rj; ++t)
                acc[r][t] += x * b[t * k + kk];
        }
    }
    for (std::size_t r = 0; r < ri; ++r)
        for (std::size_t t = 0; t < rj; ++t)
            c[r * n + t] = acc[r][t];
}

void
gemmTransBBlocked(std::size_t m, std::size_t n, std::size_t k,
                  const double *a, const double *b, double *c,
                  bool accumulate)
{
    for (std::size_t i = 0; i < m; i += kTileRows) {
        const std::size_t ri = std::min(kTileRows, m - i);
        for (std::size_t j = 0; j < n; j += kDotTileCols) {
            const std::size_t rj = std::min(kDotTileCols, n - j);
            const double *a_tile = a + i * k;
            const double *b_tile = b + j * k;
            double *c_tile = c + i * n + j;
            if (ri == kTileRows && rj == kDotTileCols) {
                if (k >= kTransBLaneMinK)
                    gemmTransBTileFull<kTileRows, kDotTileCols>(
                        k, n, a_tile, b_tile, c_tile, accumulate);
                else
                    gemmTransBTileSmallK<kTileRows, kDotTileCols>(
                        k, n, a_tile, b_tile, c_tile, accumulate);
            } else
                gemmTransBTileEdge(ri, rj, k, n, a_tile, b_tile,
                                   c_tile, accumulate);
        }
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
    gemmBlocked(m, n, k, a, b, c, accumulate);
}

void
gemmTransA(std::size_t m, std::size_t n, std::size_t k,
           const double *a, const double *b, double *c,
           bool accumulate)
{
    noteGemm(m, n, k);
    const metrics::ScopedTimer timer(gemmMetrics().ns);
    gemmTransABlocked(m, n, k, a, b, c, accumulate);
}

void
gemmTransB(std::size_t m, std::size_t n, std::size_t k,
           const double *a, const double *b, double *c,
           bool accumulate)
{
    noteGemm(m, n, k);
    const metrics::ScopedTimer timer(gemmMetrics().ns);
    gemmTransBBlocked(m, n, k, a, b, c, accumulate);
}

void
linearForward(std::size_t batch, std::size_t in, std::size_t out,
              const double *x, const double *w, const double *b,
              double *y)
{
    noteGemm(batch, out, in);
    const metrics::ScopedTimer timer(gemmMetrics().ns);
    // The bias row seeds every output row, so the GEMM's accumulate
    // path folds the broadcast into the one pass over y instead of a
    // second read-modify-write sweep.
    for (std::size_t i = 0; i < batch; ++i)
        std::copy(b, b + out, y + i * out);
    gemmTransBBlocked(batch, out, in, x, w, y, true);
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

} // namespace vaesa::kernels
