/**
 * @file
 * search_vae_bo and search_random: the paper's method and its random
 * baseline, run the way `vaesa_cli search` runs them, with a
 * benchmark-side Objective wrapper that times each objective
 * completion.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

#include "common.hh"
#include "dse/bo.hh"
#include "dse/random_search.hh"
#include "replay.hh"
#include "spans.hh"
#include "util/deadline.hh"
#include "util/metrics.hh"
#include "util/thread_pool.hh"
#include "vaesa/dataset.hh"
#include "vaesa/framework.hh"
#include "vaesa/latent_dse.hh"
#include "workload/networks.hh"

namespace perfbench {

namespace {

using namespace vaesa;

constexpr const char *workloadName = "resnet50";

/** vae_bo: samples per search, and the fewest searches (one trial
 *  each; also the searches behind best_edp). */
constexpr std::size_t boSamples = 200;
constexpr std::size_t boMinSearches = 3;
constexpr std::size_t boSetupRepeats = 4;

/** Model trained during vae_bo set-up. */
constexpr std::size_t boDatasetSize = 2000;
constexpr std::size_t boEpochs = 12;

/** random: samples per search, searches behind best_edp (spread
 *  over the trials), set-up repeats, warm-up size, check stride. */
constexpr std::size_t randomSamples = 4096;
constexpr std::size_t randomMinSearches = 8;
constexpr std::size_t randomSetupRepeats = 16;
constexpr std::size_t randomWarmupSamples = 1024;
constexpr std::size_t randomCheckEvery = 61;

/**
 * Times every objective completion: one observation per completion
 * event, valued at the gap since the previous completion divided by
 * the samples it completed.
 */
class TimedObjective : public Objective
{
  public:
    TimedObjective(Objective &inner, SpanLog *log)
        : inner_(inner), log_(log)
    {
    }

    std::size_t dim() const override { return inner_.dim(); }
    std::vector<double> lowerBounds() const override
    {
        return inner_.lowerBounds();
    }
    std::vector<double> upperBounds() const override
    {
        return inner_.upperBounds();
    }
    bool threadSafeEvaluate() const override
    {
        return inner_.threadSafeEvaluate();
    }

    double
    evaluate(const std::vector<double> &x) override
    {
        const std::uint64_t t0 = nowNs();
        double value;
        {
            const Span span(log_, "dse.objective", "evaluate");
            value = inner_.evaluate(x);
        }
        completed(t0, 1);
        return value;
    }

    std::vector<double>
    evaluateBatch(const std::vector<std::vector<double>> &xs,
                  ThreadPool *pool) override
    {
        const std::uint64_t t0 = nowNs();
        std::vector<double> values;
        {
            const Span span(log_, "dse.objective", "evaluateBatch");
            values = inner_.evaluateBatch(xs, pool);
        }
        completed(t0, xs.size());
        return values;
    }

    /** Mark the start of a search (the first gap starts here). */
    void startSearch() { last_ = nowNs(); }

    /** Per-sample time of each completion event, ms. */
    const std::vector<double> &gapsMs() const { return gapsMs_; }

    /** Time spent inside the inner objective, ns. */
    std::uint64_t insideNs() const { return insideNs_; }

  private:
    void
    completed(std::uint64_t t0, std::size_t n)
    {
        const std::uint64_t t1 = nowNs();
        insideNs_ += t1 - t0;
        if (n > 0)
            gapsMs_.push_back(static_cast<double>(t1 - last_) / 1e6 /
                              static_cast<double>(n));
        last_ = t1;
    }

    Objective &inner_;
    SpanLog *log_;
    std::uint64_t last_ = 0;
    std::uint64_t insideNs_ = 0;
    std::vector<double> gapsMs_;
};

/** Registry readings whose change over a phase gives the per-layer
 *  metrics of the program's own instruments. */
struct Registry
{
    double fitNs, fitCount, acqNs, acqCount, decodeNs, decodeCount,
        evalNs, evalCount, gemmCalls, gemmFlops, gemmNs, busyNs, tasks;

    static Registry
    read()
    {
        const auto h = [](const char *name) {
            return &metrics::histogram(name);
        };
        const auto c = [](const char *name) {
            return static_cast<double>(metrics::counter(name).value());
        };
        const auto sum = [](const metrics::Histogram *x) {
            return static_cast<double>(x->sum());
        };
        const auto count = [](const metrics::Histogram *x) {
            return static_cast<double>(x->count());
        };
        const auto *fit = h("search.bo.fit_ns");
        const auto *acq = h("search.bo.acq_ns");
        const auto *dec = h("search.decode_ns");
        const auto *ev = h("search.eval_ns");
        return {sum(fit), count(fit), sum(acq), count(acq), sum(dec),
                count(dec), sum(ev), count(ev), c("gemm.calls"),
                c("gemm.flops"), sum(h("gemm.ns")), c("pool.busy_ns"),
                c("pool.tasks")};
    }
};

/** Scalar EDP of a box point (the search_random oracle). */
double
rescoreBox(const Evaluator &scalar, const std::vector<LayerShape> &layers,
           const std::vector<double> &x)
{
    return metricValue(scalar.evaluateWorkload(decodeBoxPoint(x), layers),
                       vaesa::Metric::Edp);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** One phase of back-to-back searches. */
struct SearchPhase
{
    OpTally tally;
    std::vector<double> best;
    std::vector<std::vector<double>> points;
    std::size_t searches = 0;
    std::size_t samples = 0;
    std::size_t invalid = 0;
    std::uint64_t insideNs = 0;
    double wallSec = 0.0;
    std::uint64_t layerEvals = 0;
    SpanLog log;

    double
    opsPerSec() const
    {
        return static_cast<double>(samples) / wallSec;
    }
};

/**
 * Run searches from search index @p first until @p seconds have
 * passed and at least @p minSearches ran. @p search runs search s on
 * the wrapper and returns its trace; @p rescore re-scores the trace's
 * best point (the output check) outside the timed region. The
 * threads of @p placement rotate across the CPUs while it runs.
 */
template <class RunSearch, class Rescore>
void
runSearches(SearchPhase &phase, Objective &inner, const Evaluator &ev,
            double seconds, std::size_t minSearches, std::size_t first,
            bool traced, Result &result, RunSearch search,
            Rescore rescore, std::vector<CpuRotator::Group> placement)
{
    TimedObjective wrapper(inner, traced ? &phase.log : nullptr);
    const CpuRotator rotator(std::move(placement));
    const std::uint64_t evals0 = ev.evaluationCount();
    const double t0 = nowSec();
    for (std::size_t s = first;
         nowSec() - t0 < seconds || s - first < minSearches; ++s) {
        SearchTrace trace;
        {
            const Span op(traced ? &phase.log : nullptr, "op", "search");
            const double s0 = nowSec();
            wrapper.startSearch();
            trace = search(wrapper, s);
            phase.wallSec += nowSec() - s0;
        }
        ++phase.searches;
        phase.samples += trace.points.size();
        for (const TracePoint &p : trace.points) {
            if (!std::isfinite(p.value))
                ++phase.invalid;
            if (traced)
                phase.points.push_back(p.x);
        }
        if (!std::isfinite(trace.best())) {
            result.fail("search " + std::to_string(s) +
                        " found no valid design");
            continue;
        }
        const double again = rescore(trace, s);
        if (again != trace.best())
            result.fail("search " + std::to_string(s) + " best EDP " +
                        std::to_string(trace.best()) +
                        " != re-score " + std::to_string(again));
        phase.best.push_back(trace.best());
    }
    phase.layerEvals = ev.evaluationCount() - evals0;
    phase.insideNs = wrapper.insideNs();
    for (double ms : wrapper.gapsMs())
        phase.tally.success(ms);
}

/** Per-layer metrics shared by both searches. */
void
addSearchLayers(Result &result, const SearchPhase &traced,
                double untracedOps, const Registry &r0,
                const Registry &r1, std::size_t layers,
                std::size_t poolWorkers, std::size_t distinct)
{
    const double samples = static_cast<double>(traced.samples);
    const double wallNs = traced.wallSec * 1e9;
    result.add("sched.layer_evals",
               static_cast<double>(traced.layerEvals), "count");
    addRatio(result, "sched.dedup_ratio",
             static_cast<double>(traced.layerEvals),
             samples * static_cast<double>(layers),
             "layer evaluations / (samples x layers)");
    addRatio(result, "dse.objective_share",
             static_cast<double>(traced.insideNs), wallNs,
             "ns inside the objective / search wall ns");
    result.add("bo.fit_ms",
               ratio(r1.fitNs - r0.fitNs, r1.fitCount - r0.fitCount) / 1e6,
               "ms");
    result.add("bo.acq_ms",
               ratio(r1.acqNs - r0.acqNs, r1.acqCount - r0.acqCount) / 1e6,
               "ms");
    addRatio(result, "search.distinct_frac", static_cast<double>(distinct),
             samples, "distinct decoded configs / samples");
    addRatio(result, "search.invalid_frac",
             static_cast<double>(traced.invalid), samples,
             "invalid evaluations / evaluations");
    result.add("vaesa.decode_us",
               ratio(r1.decodeNs - r0.decodeNs,
                     r1.decodeCount - r0.decodeCount) / 1e3,
               "us");
    result.add("search.eval_us",
               ratio(r1.evalNs - r0.evalNs, r1.evalCount - r0.evalCount) /
                   1e3,
               "us");
    result.add("gemm.calls", r1.gemmCalls - r0.gemmCalls, "count");
    result.add("gemm.flops", r1.gemmFlops - r0.gemmFlops, "count");
    addRatio(result, "gemm.share", r1.gemmNs - r0.gemmNs, wallNs,
             "gemm ns / search wall ns");
    result.add("gemm.gflops_per_s",
               ratio(r1.gemmFlops - r0.gemmFlops, r1.gemmNs - r0.gemmNs),
               "GFLOP/s");
    addRatio(result, "pool.busy_share", r1.busyNs - r0.busyNs,
             wallNs * static_cast<double>(poolWorkers),
             "pool busy ns / (search wall ns x workers)");
    result.add("pool.tasks", r1.tasks - r0.tasks, "count");

    std::vector<const SpanLog *> logs = {&traced.log};
    double opMs = 0.0;
    const std::vector<LayerRow> rows = layerBreakdown(logs, &opMs);
    printBreakdown(rows, opMs);
    double uncovered = 0.0;
    for (const LayerRow &row : rows)
        if (row.layer == "uncovered")
            uncovered = row.selfMs;
    std::printf("  the search loop's self time (op time outside the "
                "objective) is the uncovered row; inside it, per "
                "iteration: GP fit %.3f ms, acquisition %.3f ms\n",
                ratio(r1.fitNs - r0.fitNs, r1.fitCount - r0.fitCount) /
                    1e6,
                ratio(r1.acqNs - r0.acqNs, r1.acqCount - r0.acqCount) /
                    1e6);
    addRatio(result, "trace.uncovered_share", uncovered, opMs,
             "op ms no span covers / op ms");
    addRatio(result, "trace.ops_ratio", traced.opsPerSec(), untracedOps,
             "tracing overhead: traced ops/s / untraced ops/s");
}

/**
 * Trials of back-to-back searches: at least @p minTrials, and more
 * until @p seconds passed; each trial runs @p trialSeconds and at
 * least @p perTrial searches. Search indices run on across trials.
 */
template <class RunSearch, class Rescore>
std::vector<SearchPhase>
runTrials(Objective &inner, const Evaluator &ev, double seconds,
          std::size_t minTrials, double trialSeconds, std::size_t perTrial,
          Result &result, RunSearch search, Rescore rescore,
          const std::vector<CpuRotator::Group> &placement)
{
    std::vector<SearchPhase> trials;
    std::size_t next = 0;
    const double t0 = nowSec();
    while (trials.size() < minTrials || nowSec() - t0 < seconds) {
        trials.emplace_back();
        runSearches(trials.back(), inner, ev, trialSeconds, perTrial, next,
                    false, result, search, rescore, placement);
        next += trials.back().searches;
    }
    return trials;
}

/** The trials as end-to-end Trials; prints best_edp over the first
 *  @p bestOf searches. */
std::vector<Trial>
summarize(const char *name, const std::vector<SearchPhase> &phases,
          std::size_t bestOf)
{
    std::vector<Trial> trials;
    std::vector<double> best;
    std::size_t searches = 0;
    for (const SearchPhase &p : phases) {
        trials.push_back({p.tally, p.samples, p.wallSec});
        best.insert(best.end(), p.best.begin(), p.best.end());
        searches += p.searches;
    }
    best.resize(std::min(best.size(), bestOf));
    std::printf("%s: %zu searches in %zu trials, %.6g ops/s overall, "
                "best_edp (geomean of the first %zu searches) %.6g\n",
                name, searches, phases.size(), overallOpsPerSec(trials),
                best.size(), geomean(best));
    return trials;
}

std::vector<LayerShape>
trainingPool()
{
    std::vector<LayerShape> pool;
    for (const Workload &w : trainingWorkloads())
        pool.insert(pool.end(), w.layers.begin(), w.layers.end());
    return pool;
}

} // namespace

int
runSearchVaeBo(const Options &opts, Result &result)
{
    printIdentity(opts, "1 (BayesOpt without a pool, as vaesa_cli "
                        "search runs it)");
    const std::vector<LayerShape> layers =
        workloadByName(workloadName).layers;

    // Set-up: dataset build + training, repeated; every repeat must
    // reproduce the same model.
    const Evaluator ev;
    std::unique_ptr<VaesaFramework> framework;
    std::vector<double> setups, buildSec;
    double buildEvals = 0.0, buildSamples = 0.0;
    FrameworkOptions options;
    options.train.epochs = boEpochs;
    for (std::size_t r = 0; r < boSetupRepeats; ++r) {
        rotateCaller(r);
        const std::uint64_t evals0 = ev.evaluationCount();
        const double t0 = nowSec();
        Rng rng(opts.seed);
        const Dataset data =
            DatasetBuilder(ev, trainingPool()).build(boDatasetSize, rng);
        const double t1 = nowSec();
        auto fw = std::make_unique<VaesaFramework>(data, options,
                                                   opts.seed);
        setups.push_back(nowSec() - t0);
        buildSec.push_back(t1 - t0);
        buildEvals = static_cast<double>(ev.evaluationCount() - evals0);
        buildSamples = static_cast<double>(data.size());
        const double loss = fw->history().back().totalLoss;
        if (!std::isfinite(loss))
            result.fail("set-up training loss is not finite");
        if (framework &&
            loss != framework->history().back().totalLoss)
            result.fail("set-up repeats trained different models");
        framework = std::move(fw);
    }
    pinThread(0, allowedCpus());
    std::printf("search_vae_bo: model loss %.6g after %zu epochs on "
                "%zu samples\n",
                framework->history().back().totalLoss, boEpochs,
                boDatasetSize);

    LatentObjective latent(*framework, ev, layers);
    const auto search = [&](Objective &obj, std::size_t s) {
        Rng rng(opts.seed * 7919ull + s);
        return BayesOpt().run(obj, boSamples, rng, nullptr);
    };
    const auto rescore = [&](const SearchTrace &trace, std::size_t) {
        return metricValue(
            ev.evaluateWorkload(latent.decode(trace.bestPoint()), layers),
            vaesa::Metric::Edp);
    };

    // One trial per search: at least boMinSearches, then more until
    // --seconds passed.
    const std::vector<CpuRotator::Group> placement = {{{callerTid()}, 1}};
    const std::vector<SearchPhase> phases = runTrials(
        latent, ev, opts.trace ? opts.seconds / 2 : opts.seconds,
        opts.trace ? 1 : boMinSearches, 0.0, 1, result, search, rescore,
        placement);
    const std::vector<Trial> trials =
        summarize("search_vae_bo", phases, boMinSearches);
    if (!opts.trace) {
        addEndToEnd(result, trials, setups, selfPeakRssMib());
        return result.correct() ? 0 : 1;
    }
    printTrials(trials);

    // The same searches again, traced: identical work, so the ratio of
    // the two throughputs is the tracing overhead.
    metrics::setMetricsEnabled(true);
    const Registry r0 = Registry::read();
    SearchPhase traced;
    runSearches(traced, latent, ev, 0.0, phases.size(), 0, true, result,
                search, rescore, placement);
    const Registry r1 = Registry::read();
    metrics::setMetricsEnabled(false);
    result.attempted = traced.tally.attempted();
    result.failed = traced.tally.failed();

    std::set<std::array<std::int64_t, numHwParams>> distinct;
    std::vector<AcceleratorConfig> decoded;
    for (const std::vector<double> &z : traced.points) {
        const AcceleratorConfig c = latent.decode(z);
        if (distinct.insert(designSpace().toIndices(c)).second)
            decoded.push_back(c);
    }
    addSearchLayers(result, traced, overallOpsPerSec(trials), r0, r1,
                    layers.size(), 0, distinct.size());
    result.add("dataset.build_s", median(buildSec), "s");
    addRatio(result, "dataset.evals_per_sample", buildEvals, buildSamples,
             "layer evaluations / valid samples");
    if (decoded.size() > 256)
        decoded.resize(256);
    const ReplayCost replay = replayMapper(decoded, layers, nullptr);
    result.add("sched.mapper_ns", replay.mapperNs, "ns");
    result.add("costmodel.ns_per_item", replay.costNsPerItem, "ns");
    writeSpans(opts.outDir + "/search_vae_bo_spans.csv", {&traced.log});
    return result.correct() ? 0 : 1;
}

int
runSearchRandom(const Options &opts, Result &result)
{
    const std::size_t poolThreads =
        std::min<std::size_t>(2, hostThreads());
    printIdentity(opts, "RandomSearch pool of " +
                            std::to_string(poolThreads) +
                            " workers (caller blocks while they run)");
    const std::vector<LayerShape> layers =
        workloadByName(workloadName).layers;

    // Set-up: evaluator, objective and pool construction plus one
    // warm-up chunk, repeated; the last instance is measured.
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<Evaluator> ev;
    std::unique_ptr<InputSpaceObjective> objective;
    std::vector<double> setups;
    const CancelToken never;
    for (std::size_t r = 0; r < randomSetupRepeats; ++r) {
        objective.reset();
        pool.reset();
        ev.reset();
        rotateCaller(r); // the pool's workers inherit this CPU
        const double t0 = nowSec();
        pool = std::make_unique<ThreadPool>(poolThreads);
        ev = std::make_unique<Evaluator>();
        objective = std::make_unique<InputSpaceObjective>(*ev, layers);
        Rng rng(opts.seed);
        const SearchTrace warm = RandomSearch().run(
            *objective, randomWarmupSamples, rng, pool.get(), nullptr,
            &never);
        setups.push_back(nowSec() - t0);
        if (warm.points.size() != randomWarmupSamples)
            result.fail("warm-up search came back short");
    }
    pinThread(0, allowedCpus());
    // The caller and each pool worker get a CPU of their own.
    std::vector<CpuRotator::Group> placement;
    for (int tid : threadIds(0))
        placement.push_back({{tid}, 1});

    // Output check: a sample of the trace values must match scalar
    // Evaluator::evaluateWorkload.
    std::size_t checked = 0, mismatched = 0;
    const Evaluator scalar;
    const auto search = [&](Objective &obj, std::size_t s) {
        Rng rng(opts.seed * 7919ull + s);
        SearchTrace trace = RandomSearch().run(obj, randomSamples, rng,
                                               pool.get(), nullptr,
                                               &never);
        return trace;
    };
    const auto rescore = [&](const SearchTrace &trace, std::size_t s) {
        for (std::size_t i = s % randomCheckEvery;
             i < trace.points.size(); i += randomCheckEvery) {
            ++checked;
            if (!(rescoreBox(scalar, layers, trace.points[i].x) ==
                  trace.points[i].value))
                ++mismatched;
        }
        return rescoreBox(scalar, layers, trace.bestPoint());
    };
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    const std::vector<SearchPhase> phases =
        runTrials(*objective, *ev, 0.0, trialsPerRun,
                  budget / trialsPerRun, randomMinSearches / trialsPerRun,
                  result, search, rescore, placement);
    const std::vector<Trial> trials =
        summarize("search_random", phases, randomMinSearches);
    if (!opts.trace) {
        if (mismatched)
            result.fail(std::to_string(mismatched) + " of " +
                        std::to_string(checked) +
                        " sampled trace values differ from scalar "
                        "evaluation");
        std::printf("search_random: %zu sampled trace values match "
                    "scalar evaluation\n",
                    checked - mismatched);
        addEndToEnd(result, trials, setups, selfPeakRssMib());
        return result.correct() ? 0 : 1;
    }
    printTrials(trials);

    std::size_t searches = 0;
    for (const SearchPhase &p : phases)
        searches += p.searches;
    metrics::setMetricsEnabled(true);
    const Registry r0 = Registry::read();
    SearchPhase traced;
    runSearches(traced, *objective, *ev, 0.0, searches, 0, true, result,
                search, rescore, placement);
    const Registry r1 = Registry::read();
    metrics::setMetricsEnabled(false);
    result.attempted = traced.tally.attempted();
    result.failed = traced.tally.failed();
    if (mismatched)
        result.fail(std::to_string(mismatched) + " of " +
                    std::to_string(checked) +
                    " sampled trace values differ from scalar "
                    "evaluation");

    std::set<std::array<std::int64_t, numHwParams>> distinct;
    std::vector<AcceleratorConfig> decoded;
    for (const std::vector<double> &x : traced.points) {
        const AcceleratorConfig c = decodeBoxPoint(x);
        if (distinct.insert(designSpace().toIndices(c)).second &&
            decoded.size() < 256)
            decoded.push_back(c);
    }
    addSearchLayers(result, traced, overallOpsPerSec(trials), r0, r1,
                    layers.size(), poolThreads, distinct.size());
    const ReplayCost replay = replayMapper(decoded, layers, nullptr);
    result.add("sched.mapper_ns", replay.mapperNs, "ns");
    result.add("costmodel.ns_per_item", replay.costNsPerItem, "ns");
    writeSpans(opts.outDir + "/search_random_spans.csv", {&traced.log});
    return result.correct() ? 0 : 1;
}

} // namespace perfbench
