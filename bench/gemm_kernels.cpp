/**
 * @file
 * Kernel-layer speedup study: the reference triple loops
 * (tests/common/reference_gemm.hh, "naive") against the tuned
 * kernels ("blocked"), single thread, over the layer shapes the
 * Figure 11 training runs actually execute (batch 64, VAE hidden
 * {128, 64}, latent 4, predictor hidden {64, 64}), plus the
 * full-dataset encode batch.
 *
 * Each row is one layer (batch x in -> out) in one of the three
 * orientations a training step runs:
 *   fwd  Y = X * W^T + b   kernels::linearForward   m=batch n=out k=in
 *   dX   dX = dY * W       kernels::gemm            m=batch n=in  k=out
 *   dW   dW = dY^T * X     kernels::gemmTransA      m=out   n=in  k=batch
 * The naive side runs reference::gemmTransB / gemm / gemmTransA on
 * the same operands (the forward with a zero bias, which adds
 * nothing).
 *
 * The acceptance bar is the geometric-mean single-thread speedup over
 * the compute-bound training shapes (the 64- and 128-wide layers in
 * all three orientations, where register tiling pays; the k = 6 and
 * n = 6 rows of the input and output layers are latency-bound and
 * reported per orientation but not gated). The binary exits nonzero
 * below the 3x target so CI catches kernel regressions. Results land
 * in bench_out/gemm_kernels.{csv,json} and BENCH_gemm_kernels.json in
 * the working directory (run from the repo root to refresh the
 * checked-in copy), which also records the host's hardware
 * thread count (hw_threads) and the micro-kernel the CPU dispatched
 * to (isa: avx512, avx2 or generic).
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

#include "studies/common.hh"
#include "common/reference_gemm.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/matrix.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace {

using namespace vaesa;

enum class Orientation { Fwd, DX, DW };

const char *
orientationName(Orientation o)
{
    return o == Orientation::Fwd ? "fwd" : o == Orientation::DX ? "dX"
                                                                 : "dW";
}

struct Shape
{
    const char *layer;
    std::size_t batch, in, out;
    Orientation orientation;
    bool gated; // counts toward the speedup target

    std::size_t m() const
    {
        return orientation == Orientation::DW ? out : batch;
    }
    std::size_t n() const
    {
        return orientation == Orientation::Fwd ? out : in;
    }
    std::size_t k() const
    {
        return orientation == Orientation::Fwd  ? in
               : orientation == Orientation::DX ? out
                                                : batch;
    }
};

/** The operands of one shape, in its orientation's storage. */
struct Operands
{
    Matrix a, b, c, bias, wt;

    Operands(const Shape &s, Rng &rng)
        : a(s.orientation == Orientation::DW ? s.k() : s.m(),
            s.orientation == Orientation::DW ? s.m() : s.k()),
          b(s.orientation == Orientation::Fwd ? s.n() : s.k(),
            s.orientation == Orientation::Fwd ? s.k() : s.n()),
          c(s.m(), s.n()), bias(1, s.n()), wt(s.k(), s.n())
    {
        a.randomUniform(rng, -1.0, 1.0);
        b.randomUniform(rng, -1.0, 1.0);
    }
};

/** One multiply of the shape, by the reference or the tuned GEMM. */
double
runOnce(const Shape &s, Operands &op, bool reference)
{
    const std::size_t m = s.m(), n = s.n(), k = s.k();
    const double *a = op.a.data();
    const double *b = op.b.data();
    double *c = op.c.data();
    switch (s.orientation) {
      case Orientation::Fwd:
        if (reference)
            reference::gemmTransB(m, n, k, a, b, c);
        else
            kernels::linearForward(m, k, n, a, b, op.bias.data(),
                                   op.wt.data(), c);
        break;
      case Orientation::DX:
        (reference ? reference::gemm : kernels::gemm)(m, n, k, a, b, c,
                                                      false);
        break;
      case Orientation::DW:
        (reference ? reference::gemmTransA : kernels::gemmTransA)(
            m, n, k, a, b, c, false);
        break;
    }
    return op.c(0, 0);
}

/** Best-of-reps ns per multiply, auto-scaling the inner iterations. */
double
nsPerMultiply(const Shape &s, Operands &op, bool reference,
              std::size_t reps, double target_ms)
{
    // Calibrate the inner loop to roughly target_ms per measurement.
    const auto t0 = std::chrono::steady_clock::now();
    double sink = runOnce(s, op, reference);
    const auto t1 = std::chrono::steady_clock::now();
    const double once_s =
        std::chrono::duration<double>(t1 - t0).count();
    const auto iters = static_cast<std::size_t>(std::clamp(
        target_ms * 1e-3 / std::max(once_s, 1e-9), 1.0, 1e6));

    double best_s = 1e100;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto r0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < iters; ++i)
            sink += runOnce(s, op, reference);
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
    // every layer width class in all three orientations, plus the
    // one-shot dataset encode.
    std::vector<Shape> shapes;
    const struct
    {
        const char *layer;
        std::size_t in, out;
        bool gated;
    } layers[] = {
        {"enc.in", 6, 128, false},  {"enc.h1", 128, 64, true},
        {"dec.h1", 64, 128, true},  {"dec.out", 128, 6, false},
        {"pred.h1", 64, 64, true},
    };
    for (const auto &l : layers)
        for (const Orientation o :
             {Orientation::Fwd, Orientation::DX, Orientation::DW})
            shapes.push_back({l.layer, 64, l.in, l.out, o, l.gated});
    shapes.push_back(
        {"encode.ds", 2500, 6, 128, Orientation::Fwd, false});

    Rng rng(71);
    const std::size_t hw_threads = ThreadPool::hardwareThreadCount();
    const char *isa = kernels::gemmIsaName(kernels::gemmIsa());
    std::printf("host hw_threads %zu, gemm path %s\n", hw_threads, isa);
    std::printf("%-9s %-6s %-14s %12s %12s %9s\n", "layer", "orient",
                "m x n x k", "naive ns", "blocked ns", "speedup");
    bench::rule();

    double log_speedup_sum = 0.0;
    std::size_t gated_count = 0;
    std::vector<double> naive_ns(shapes.size());
    std::vector<double> blocked_ns(shapes.size());

    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const Shape &s = shapes[i];
        Operands op(s, rng);
        naive_ns[i] = nsPerMultiply(s, op, true, reps, target_ms);
        blocked_ns[i] = nsPerMultiply(s, op, false, reps, target_ms);

        const double speedup = naive_ns[i] / blocked_ns[i];
        if (s.gated) {
            log_speedup_sum += std::log(speedup);
            ++gated_count;
        }
        const std::string dims = std::to_string(s.m()) + "x" +
                                 std::to_string(s.n()) + "x" +
                                 std::to_string(s.k());
        std::printf("%-9s %-6s %-14s %12.0f %12.0f %8.2fx%s\n", s.layer,
                    orientationName(s.orientation), dims.c_str(),
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
    csv.header({"layer", "orientation", "m", "n", "k", "gated",
                "naive_ns", "blocked_ns", "speedup"});
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const Shape &s = shapes[i];
        csv.row({s.layer, orientationName(s.orientation),
                 std::to_string(s.m()), std::to_string(s.n()),
                 std::to_string(s.k()), s.gated ? "1" : "0",
                 CsvWriter::cell(naive_ns[i]),
                 CsvWriter::cell(blocked_ns[i]),
                 CsvWriter::cell(naive_ns[i] / blocked_ns[i])});
    }

    std::string body = "{\n  \"bench\": \"gemm_kernels\",\n"
                       "  \"hw_threads\": " +
                       std::to_string(hw_threads) +
                       ",\n  \"isa\": \"" + isa +
                       "\",\n  \"shapes\": [\n";
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        char row[512];
        const Shape &s = shapes[i];
        std::snprintf(
            row, sizeof(row),
            "    {\"layer\": \"%s\", \"orientation\": \"%s\", "
            "\"m\": %zu, \"n\": %zu, \"k\": %zu, \"gated\": %s, "
            "\"naive_ns\": %.0f, \"blocked_ns\": %.0f, "
            "\"speedup\": %.3f}%s\n",
            s.layer, orientationName(s.orientation), s.m(), s.n(),
            s.k(), s.gated ? "true" : "false", naive_ns[i],
            blocked_ns[i], naive_ns[i] / blocked_ns[i],
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
    std::ofstream("BENCH_gemm_kernels.json") << body;

    bench::rule();
    std::printf("%s (baseline written to BENCH_gemm_kernels.json)\n",
                meets_target ? "meets 3x target"
                             : "BELOW 3x TARGET");
    return meets_target ? 0 : 1;
}
