/**
 * @file
 * google-benchmark microbenchmarks for the framework's kernels:
 * dense GEMM, Cholesky/GP fits and acquisition, the one-shot
 * scheduler, the
 * analytical cost model, the memoized (all-hit) workload score the
 * serve daemon answers from, and VAE forward/backward training steps.
 * These quantify the substrate costs behind every experiment (e.g.
 * how many design points per second the evaluator can score).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "dse/bo.hh"
#include "dse/gp.hh"
#include "nn/loss.hh"
#include "nn/optim.hh"
#include "nn/sequential.hh"
#include "sched/caching_evaluator.hh"
#include "sched/evaluator.hh"
#include "tensor/kernels/kernels.hh"
#include "tensor/linalg.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "vaesa/vae.hh"
#include "workload/networks.hh"

namespace {

using namespace vaesa;

void
BM_MatrixMultiply(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    Matrix a(n, n);
    Matrix b(n, n);
    a.randomNormal(rng, 0.0, 1.0);
    b.randomNormal(rng, 0.0, 1.0);
    for (auto _ : state) {
        Matrix c(n, n);
        kernels::gemm(n, n, n, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatrixMultiply)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void
BM_Cholesky(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(2);
    Matrix b(n, n);
    b.randomNormal(rng, 0.0, 1.0);
    // a = b^T b + n I is symmetric positive definite.
    Matrix a(n, n);
    kernels::gemmTransA(n, n, n, b.data(), b.data(), a.data());
    for (std::size_t i = 0; i < n; ++i)
        a(i, i) += static_cast<double>(n);
    for (auto _ : state) {
        Matrix lower;
        cholesky(a, lower);
        benchmark::DoNotOptimize(lower.data());
    }
}
BENCHMARK(BM_Cholesky)->Arg(64)->Arg(128)->Arg(192)->Arg(256);

/** n random 4-D training points with normal labels. */
void
gpTrainingSet(std::size_t n, Rng &rng,
              std::vector<std::vector<double>> &xs,
              std::vector<double> &ys)
{
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back({rng.uniform(), rng.uniform(), rng.uniform(),
                      rng.uniform()});
        ys.push_back(rng.normal());
    }
}

void
BM_GpFitPredict(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto queries = static_cast<std::size_t>(state.range(1));
    Rng rng(3);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    gpTrainingSet(n, rng, xs, ys);
    std::vector<std::vector<double>> candidates;
    for (std::size_t q = 0; q < queries; ++q)
        candidates.push_back({rng.uniform(), rng.uniform(),
                              rng.uniform(), rng.uniform()});
    std::vector<GaussianProcess::Prediction> preds(queries);
    // A fresh GP per iteration: every fit is a full factorization.
    for (auto _ : state) {
        GaussianProcess gp;
        gp.fit(xs, ys);
        gp.predictBatch(candidates, preds);
        benchmark::DoNotOptimize(preds.data());
        benchmark::ClobberMemory();
    }
}
// {training points, queries}; {192, 640} is one BayesOpt iteration's
// fit + acquisition at the default subset-of-data cap and candidate
// count.
BENCHMARK(BM_GpFitPredict)
    ->Args({64, 64})
    ->Args({128, 64})
    ->Args({192, 64})
    ->Args({192, 640});

/** A smooth landscape over the unit 4-cube: a bowl around
 *  (0.3, ..., 0.3) with a ripple along the first axis. */
class SmoothObjective : public Objective
{
  public:
    std::size_t dim() const override { return 4; }
    std::vector<double> lowerBounds() const override
    {
        return std::vector<double>(4, 0.0);
    }
    std::vector<double> upperBounds() const override
    {
        return std::vector<double>(4, 1.0);
    }
    double
    evaluate(const std::vector<double> &x) override
    {
        double y = 0.3 * std::sin(6.0 * x[0]);
        for (const double v : x)
            y += (v - 0.3) * (v - 0.3);
        return y;
    }
};

void
BM_GpAcquisition(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto queries = static_cast<std::size_t>(state.range(1));
    const bool smooth = state.range(2) != 0;
    const auto width = static_cast<std::size_t>(state.range(3));
    Rng rng(3);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    if (smooth) {
        // The points a BayesOpt run on the landscape observed: a
        // cluster around its optimum, as the GP sees mid-search.
        SmoothObjective objective;
        const SearchTrace trace = BayesOpt().run(objective, n, rng);
        for (const TracePoint &p : trace.points) {
            xs.push_back(p.x);
            ys.push_back(p.value);
        }
    } else {
        gpTrainingSet(n, rng, xs, ys);
    }
    GaussianProcess gp;
    gp.fitWithHyperSearch(xs, ys);
    // As in a BayesOpt iteration: an unscored fallback, then uniform
    // candidates and, for the last fifth, perturbations of the best
    // training point.
    const std::size_t incumbent = static_cast<std::size_t>(
        std::min_element(ys.begin(), ys.end()) - ys.begin());
    std::vector<std::vector<double>> candidates(queries + 1);
    for (std::size_t q = 0; q <= queries; ++q) {
        candidates[q] = xs[incumbent];
        for (double &v : candidates[q])
            v = q < queries * 4 / 5 ? rng.uniform()
                                    : v + rng.normal(0.0, 0.08);
    }
    std::unique_ptr<ThreadPool> pool;
    if (width > 0)
        pool = std::make_unique<ThreadPool>(width);
    std::size_t solved = 0;
    std::size_t refined = 0;
    for (auto _ : state) {
        const Acquisition pick =
            selectCandidate(gp, candidates, ys[incumbent], pool.get());
        solved += pick.solved;
        refined += pick.refined;
        benchmark::DoNotOptimize(pick.index);
    }
    const double scored =
        static_cast<double>(queries * state.iterations());
    state.counters["solved_share"] = static_cast<double>(solved) / scored;
    state.counters["refined_share"] =
        static_cast<double>(refined) / scored;
    state.counters["hw_threads"] =
        static_cast<double>(ThreadPool::hardwareThreadCount());
}
// {training points, candidates, smooth, pool width}: the selector
// alone on a fitted GP; BM_GpFitPredict {192, 640} is the full-scan
// predictBatch it avoids. On random labels (smooth 0) only the first
// tile is solved, so the bound pass dominates. With smooth 1 the GP
// is fitted to a BayesOpt run's points on a smooth landscape, where
// many candidates survive the one-point variance bound, so the subset
// bound (refined_share) and the solves it spares show. Width 0 runs
// without a pool; widths 1 and 4 price the tile chunks on the pool's
// fork/join (a 1-worker pool is the caller plus one helper).
BENCHMARK(BM_GpAcquisition)
    ->Args({64, 640, 0, 0})
    ->Args({128, 640, 0, 0})
    ->Args({192, 640, 0, 0})
    ->Args({192, 640, 0, 1})
    ->Args({192, 640, 0, 4})
    ->Args({64, 640, 1, 0})
    ->Args({192, 640, 1, 0})
    ->Args({192, 640, 1, 1})
    ->Args({192, 640, 1, 4});

void
BM_GpHyperSearch(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    gpTrainingSet(n, rng, xs, ys);
    // One GP across iterations, as BayesOpt keeps one across refits:
    // past the first iteration the search reuses its factor and Gram
    // buffers.
    GaussianProcess gp;
    for (auto _ : state) {
        gp.fitWithHyperSearch(xs, ys);
        benchmark::DoNotOptimize(gp.logMarginalLikelihood());
    }
}
// The 6 x 3 grid BayesOpt runs every hyperRefitInterval iterations;
// 192 is the default subset-of-data cap.
BENCHMARK(BM_GpHyperSearch)->Arg(64)->Arg(128)->Arg(192);

void
BM_GpAppendFit(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    gpTrainingSet(n + 1, rng, xs, ys);
    const std::vector<std::vector<double>> head(xs.begin(),
                                                xs.end() - 1);
    const std::vector<double> head_ys(ys.begin(), ys.end() - 1);
    GaussianProcess gp;
    // Fit n points, then the same n plus one, on one GP: past the
    // first iteration the n-point fit keeps n factor rows and the
    // (n+1)-point fit computes one, as a BayesOpt iteration between
    // hyperparameter refits does.
    for (auto _ : state) {
        gp.fit(head, head_ys);
        gp.fit(xs, ys);
        benchmark::DoNotOptimize(gp.logMarginalLikelihood());
    }
}
BENCHMARK(BM_GpAppendFit)->Arg(64)->Arg(128)->Arg(192);

void
BM_SchedulerOneShot(benchmark::State &state)
{
    // The configs are drawn before timing, so an iteration times only
    // schedule() over every resnet50 layer for one config.
    Scheduler sched;
    Rng rng(4);
    const auto layers = resNet50Layers();
    std::vector<AcceleratorConfig> configs(256);
    for (AcceleratorConfig &config : configs)
        config = designSpace().randomConfig(rng);
    std::size_t next = 0;
    for (auto _ : state) {
        const AcceleratorConfig &config = configs[next++ % configs.size()];
        for (const LayerShape &layer : layers) {
            const auto mapping = sched.schedule(config, layer);
            benchmark::DoNotOptimize(mapping);
        }
    }
    state.SetItemsProcessed(state.iterations() * layers.size());
}
BENCHMARK(BM_SchedulerOneShot);

void
BM_EvaluateWorkload(benchmark::State &state)
{
    Evaluator evaluator;
    Rng rng(5);
    const Workload resnet = workloadByName("resnet50");
    for (auto _ : state) {
        const AcceleratorConfig config =
            designSpace().randomConfig(rng);
        const EvalResult r =
            evaluator.evaluateWorkload(config, resnet.layers);
        benchmark::DoNotOptimize(r.edp);
    }
    state.SetItemsProcessed(state.iterations() *
                            resnet.layers.size());
}
BENCHMARK(BM_EvaluateWorkload);

void
BM_CachedEvaluateWorkloadHit(benchmark::State &state)
{
    // A serve ScoreConfig hit: every (config, layer) of the resnet50
    // rows is already memoized, so a call only keys, probes and walks.
    CachingEvaluator cache;
    Rng rng(5);
    const Workload resnet = workloadByName("resnet50");
    std::vector<AcceleratorConfig> configs(64);
    for (AcceleratorConfig &config : configs) {
        config = designSpace().randomConfig(rng);
        cache.evaluateWorkload(config, resnet);
    }
    std::size_t next = 0;
    for (auto _ : state) {
        const EvalResult r = cache.evaluateWorkload(
            configs[next++ % configs.size()], resnet);
        benchmark::DoNotOptimize(r.edp);
    }
    state.SetItemsProcessed(state.iterations() *
                            resnet.layers.size());
}
BENCHMARK(BM_CachedEvaluateWorkloadHit);

void
BM_VaeTrainingStep(benchmark::State &state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    Rng rng(6);
    VaeOptions options;
    options.latentDim = 4;
    Vae vae(options, rng);
    nn::Adam opt(vae.parameters(), 1e-3);
    Matrix x(batch, options.inputDim);
    x.randomUniform(rng, 0.0, 1.0);

    Vae::ForwardResult fr;
    nn::LossResult recon{0.0, Matrix()};
    nn::KldResult kld{0.0, Matrix(), Matrix()};
    const Matrix no_extra;
    for (auto _ : state) {
        vae.forwardInto(x, rng, true, fr);
        nn::mseLossInto(fr.recon, x, recon);
        nn::gaussianKldInto(fr.mu, fr.logvar, kld);
        kld.gradMu.scale(1e-4);
        kld.gradLogvar.scale(1e-4);
        opt.zeroGrad();
        vae.backward(fr, recon.grad, kld.gradMu, kld.gradLogvar,
                     no_extra);
        opt.step();
        benchmark::DoNotOptimize(recon.value);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_VaeTrainingStep)->Arg(16)->Arg(64)->Arg(256);

void
BM_MlpForward(benchmark::State &state)
{
    Rng rng(7);
    auto net = nn::makeMlp(12, {64, 64}, 1, rng);
    Matrix x(64, 12);
    x.randomUniform(rng, 0.0, 1.0);
    for (auto _ : state) {
        Matrix out = net->forward(x);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MlpForward);

} // namespace

BENCHMARK_MAIN();
