/**
 * @file
 * Kernel-layer speedup study: the reference triple loops
 * (tests/common/reference_gemm.hh, "naive") against the tuned GEMM
 * behind Matrix::multiply*Into ("blocked"), single thread, over the
 * layer shapes the Figure 11 training runs actually execute (batch
 * 64, VAE hidden {128, 64}, latent 4, predictor hidden {64, 64}),
 * plus the full-dataset encode batch.
 *
 * Shapes are (m, k, n) of the linearForward orientation
 * C(m x n) = A(m x k) * B(n x k)^T, i.e. batch x fan_in x fan_out.
 * The "dW" rows time the weight-gradient orientation
 * C(n x k) = G(m x n)^T * A(m x k) of the same layers.
 *
 * The acceptance bar is the geometric-mean single-thread speedup over
 * the compute-bound training shapes (k >= 64, where register tiling
 * pays; the k = 6 input layers are latency-bound and reported but not
 * gated). The binary exits nonzero below the 3x target so CI catches
 * kernel regressions. Results land in bench_out/gemm_kernels.{csv,
 * json} and the checked-in BENCH_gemm_kernels.json, which also
 * records the host's hardware thread count (hw_threads).
 *
 * Knobs: VAESA_GEMM_REPS (timing repetitions, default 7),
 *        VAESA_GEMM_MS (target milliseconds per measurement, def 40).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.hh"
#include "common/reference_gemm.hh"
#include "tensor/matrix.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace {

using namespace vaesa;

struct Shape
{
    const char *label;
    std::size_t m, k, n;
    bool transA;  // weight-gradient orientation
    bool gated;   // counts toward the speedup target
};

/** One multiply of the shape, by the reference or the tuned GEMM. */
double
runOnce(const Shape &s, const Matrix &a, const Matrix &b, Matrix &c,
        bool reference)
{
    if (reference && s.transA)
        reference::gemmTransA(c.rows(), c.cols(), a.rows(), a.data(),
                              b.data(), c.data());
    else if (reference)
        reference::gemmTransB(c.rows(), c.cols(), a.cols(), a.data(),
                              b.data(), c.data());
    else if (s.transA)
        Matrix::multiplyTransAInto(a, b, c);
    else
        Matrix::multiplyTransBInto(a, b, c);
    return c(0, 0);
}

/** Best-of-reps ns per multiply, auto-scaling the inner iterations. */
double
nsPerMultiply(const Shape &s, const Matrix &a, const Matrix &b,
              Matrix &c, bool reference, std::size_t reps,
              double target_ms)
{
    // Calibrate the inner loop to roughly target_ms per measurement.
    const auto t0 = std::chrono::steady_clock::now();
    double sink = runOnce(s, a, b, c, reference);
    const auto t1 = std::chrono::steady_clock::now();
    const double once_s =
        std::chrono::duration<double>(t1 - t0).count();
    const auto iters = static_cast<std::size_t>(std::clamp(
        target_ms * 1e-3 / std::max(once_s, 1e-9), 1.0, 1e6));

    double best_s = 1e100;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto r0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            sink += runOnce(s, a, b, c, reference);
        const auto r1 = std::chrono::steady_clock::now();
        best_s = std::min(
            best_s, std::chrono::duration<double>(r1 - r0).count() /
                        static_cast<double>(iters));
    }
    if (sink == -1.0)
        std::printf("impossible\n");
    return best_s * 1e9;
}

} // namespace

int
main()
{
    bench::banner("GEMM kernels",
                  "naive vs blocked on training shapes");

    const auto reps =
        static_cast<std::size_t>(envInt("VAESA_GEMM_REPS", 7));
    const double target_ms =
        static_cast<double>(envInt("VAESA_GEMM_MS", 40));

    // Figure 11 training pipeline at batch 64 (see file comment),
    // plus the one-shot dataset encode. transA rows are the dW
    // gradients of the widest layers.
    const std::vector<Shape> shapes = {
        {"enc.in    64x6x128", 64, 6, 128, false, false},
        {"enc.h1    64x128x64", 64, 128, 64, false, true},
        {"dec.h1    64x64x128", 64, 64, 128, false, true},
        {"dec.out   64x128x6", 64, 128, 6, false, false},
        {"pred.h1   64x64x64", 64, 64, 64, false, true},
        {"dW.enc.h1 64x128x64", 64, 128, 64, true, true},
        {"dW.dec.h1 64x64x128", 64, 64, 128, true, true},
        {"encode.ds 2500x6x128", 2500, 6, 128, false, false},
    };

    Rng rng(71);
    const std::size_t hw_threads = ThreadPool::hardwareThreadCount();
    std::printf("host hw_threads %zu\n", hw_threads);
    std::printf("%-22s %12s %12s %9s\n", "shape (m x k x n)",
                "naive ns", "blocked ns", "speedup");
    bench::rule();

    double log_speedup_sum = 0.0;
    std::size_t gated_count = 0;
    std::vector<double> naive_ns(shapes.size());
    std::vector<double> blocked_ns(shapes.size());

    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const Shape &s = shapes[i];
        // transA: A is (m x n) gradient, B is (m x k) input.
        Matrix a(s.transA ? s.m : s.m, s.transA ? s.n : s.k);
        Matrix b(s.transA ? s.m : s.n, s.k);
        Matrix c(s.transA ? s.n : s.m, s.transA ? s.k : s.n);
        a.randomUniform(rng, -1.0, 1.0);
        b.randomUniform(rng, -1.0, 1.0);

        naive_ns[i] = nsPerMultiply(s, a, b, c, true, reps, target_ms);
        blocked_ns[i] =
            nsPerMultiply(s, a, b, c, false, reps, target_ms);

        const double speedup = naive_ns[i] / blocked_ns[i];
        if (s.gated) {
            log_speedup_sum += std::log(speedup);
            ++gated_count;
        }
        std::printf("%-22s %12.0f %12.0f %8.2fx%s\n", s.label,
                    naive_ns[i], blocked_ns[i], speedup,
                    s.gated ? "" : "  (ungated)");
    }

    const double geomean =
        std::exp(log_speedup_sum / static_cast<double>(gated_count));
    const bool meets_target = geomean >= 3.0;

    bench::rule();
    std::printf("single-thread speedup geomean over %zu gated "
                "shapes: %.2fx (target 3x)\n",
                gated_count, geomean);

    CsvWriter csv(bench::csvPath("gemm_kernels.csv"));
    csv.header({"shape", "m", "k", "n", "orientation", "gated",
                "naive_ns", "blocked_ns", "speedup"});
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const Shape &s = shapes[i];
        csv.row({s.label, std::to_string(s.m),
                 std::to_string(s.k), std::to_string(s.n),
                 s.transA ? "transA" : "transB",
                 s.gated ? "1" : "0", CsvWriter::cell(naive_ns[i]),
                 CsvWriter::cell(blocked_ns[i]),
                 CsvWriter::cell(naive_ns[i] / blocked_ns[i])});
    }

    std::string body = "{\n  \"bench\": \"gemm_kernels\",\n"
                       "  \"hw_threads\": " +
                       std::to_string(hw_threads) +
                       ",\n  \"shapes\": [\n";
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        char row[512];
        const Shape &s = shapes[i];
        std::snprintf(
            row, sizeof(row),
            "    {\"label\": \"%s\", \"m\": %zu, \"k\": %zu, "
            "\"n\": %zu, \"gated\": %s, \"naive_ns\": %.0f, "
            "\"blocked_ns\": %.0f, \"speedup\": %.3f}%s\n",
            s.label, s.m, s.k, s.n, s.gated ? "true" : "false",
            naive_ns[i], blocked_ns[i], naive_ns[i] / blocked_ns[i],
            i + 1 < shapes.size() ? "," : "");
        body += row;
    }
    char tail[256];
    std::snprintf(tail, sizeof(tail),
                  "  ],\n  \"speedup_geomean\": %.3f,\n"
                  "  \"target\": 3.0,\n"
                  "  \"meets_target\": %s\n}\n",
                  geomean, meets_target ? "true" : "false");
    body += tail;
    std::ofstream(bench::csvPath("gemm_kernels.json")) << body;
    std::ofstream(bench::repoRootPath("BENCH_gemm_kernels.json"))
        << body;

    bench::rule();
    std::printf("%s (baseline written to BENCH_gemm_kernels.json)\n",
                meets_target ? "meets 3x target"
                             : "BELOW 3x TARGET");
    return meets_target ? 0 : 1;
}
