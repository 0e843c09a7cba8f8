/**
 * @file
 * train: the `vaesa_cli train` flow. DatasetBuilder runs over the
 * training layer pool during set-up (the scalar Evaluator path); the
 * measurement then trains the VAE + predictor heads on that fixed
 * dataset in rounds of a fixed epoch count. Each minibatch step is one
 * call of the public Trainer::runEpoch on that minibatch's rows, so
 * every step is timed: the per-op time behind op_p50_ms / op_p90_ms is
 * a step's time per row. Every round starts from the same seed, so
 * every round must reproduce the same losses bit for bit.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "common.hh"
#include "replay.hh"
#include "spans.hh"
#include "util/metrics.hh"
#include "vaesa/dataset.hh"
#include "vaesa/framework.hh"
#include "vaesa/trainer.hh"
#include "workload/networks.hh"

namespace perfbench {

namespace {

using namespace vaesa;

constexpr std::size_t datasetSize = 8192;
constexpr std::size_t epochsPerRound = 4;
constexpr std::size_t setupRepeats = 32;

/** One measured phase of training rounds. */
struct TrainPhase
{
    OpTally tally; // per-row time of each step, ms
    std::vector<double> epochMs;
    std::size_t rows = 0;
    std::size_t rounds = 0;
    double wallSec = 0.0;
    SpanLog log;
};

/** Copy rows order[begin, end) of @p src into @p out. */
void
gatherRows(const Matrix &src, const std::vector<std::size_t> &order,
           std::size_t begin, std::size_t end, Matrix &out)
{
    out.resizeBuffer(end - begin, src.cols());
    for (std::size_t i = begin; i < end; ++i)
        std::copy(src.data() + order[i] * src.cols(),
                  src.data() + (order[i] + 1) * src.cols(),
                  out.data() + (i - begin) * src.cols());
}

/**
 * Train fresh models round after round for at least @p seconds (and
 * one round). @p firstLoss, when not NaN, is the final loss every
 * round must reproduce; otherwise the first round sets it.
 */
void
trainRounds(TrainPhase &phase, const Dataset &data, std::uint64_t seed,
            double seconds, bool traced, double *firstLoss,
            Result &result)
{
    SpanLog *log = traced ? &phase.log : nullptr;
    const FrameworkOptions options;
    const std::size_t batch = options.train.batchSize;
    Matrix hw, layer, lat, en;
    const double t0 = nowSec();
    while (nowSec() - t0 < seconds || phase.rounds == 0) {
        // The models VaesaFramework builds, in its order, from the
        // same seeded stream.
        Rng rng(seed);
        Vae vae(options.vae, rng);
        PredictorOptions pred;
        pred.designDim = options.vae.latentDim;
        pred.layerDim = numLayerFeatures;
        pred.hiddenDims = options.predictorHidden;
        pred.leakySlope = options.vae.leakySlope;
        Predictor latency(pred, rng, "latency");
        Predictor energy(pred, rng, "energy");
        Trainer trainer(vae, latency, energy, options.train);
        double loss = 0.0;
        for (std::size_t e = 0; e < epochsPerRound; ++e) {
            const Span op(log, "op", "epoch");
            const std::uint64_t e0 = nowNs();
            const std::vector<std::size_t> order =
                rng.permutation(data.size());
            double lossSum = 0.0;
            std::size_t steps = 0;
            for (std::size_t b = 0; b < data.size(); b += batch) {
                const std::size_t end = std::min(data.size(), b + batch);
                gatherRows(data.hwFeatures(), order, b, end, hw);
                gatherRows(data.layerFeatures(), order, b, end, layer);
                gatherRows(data.latencyLabels(), order, b, end, lat);
                gatherRows(data.energyLabels(), order, b, end, en);
                const std::uint64_t s0 = nowNs();
                EpochStats stats;
                {
                    const Span span(log, "vaesa.train",
                                    "Trainer::runEpoch");
                    stats = trainer.runEpoch(hw, layer, lat, en, rng, true);
                }
                phase.tally.success(static_cast<double>(nowNs() - s0) /
                                    1e6 / static_cast<double>(end - b));
                lossSum += stats.totalLoss;
                ++steps;
            }
            phase.epochMs.push_back(static_cast<double>(nowNs() - e0) /
                                    1e6);
            phase.rows += data.size();
            loss = lossSum / static_cast<double>(steps);
            if (!std::isfinite(loss))
                result.fail("training loss is not finite");
        }
        if (std::isnan(*firstLoss))
            *firstLoss = loss;
        else if (loss != *firstLoss)
            result.fail("a training round did not reproduce the first "
                        "round's loss");
        ++phase.rounds;
    }
    phase.wallSec = nowSec() - t0;
}

} // namespace

int
runTrain(const Options &opts, Result &result)
{
    printIdentity(opts, "1 (Trainer runs on the calling thread)");
    std::vector<LayerShape> pool;
    for (const Workload &w : trainingWorkloads())
        pool.insert(pool.end(), w.layers.begin(), w.layers.end());

    // Set-up: dataset build, repeated on each CPU in turn; every
    // repeat must build the same dataset.
    const Evaluator ev;
    std::unique_ptr<Dataset> data;
    std::vector<double> setups;
    double buildEvals = 0.0;
    for (std::size_t r = 0; r < setupRepeats; ++r) {
        rotateCaller(r);
        const std::uint64_t evals0 = ev.evaluationCount();
        const double t0 = nowSec();
        Rng rng(opts.seed);
        auto built = std::make_unique<Dataset>(
            DatasetBuilder(ev, pool).build(datasetSize, rng));
        setups.push_back(nowSec() - t0);
        buildEvals = static_cast<double>(ev.evaluationCount() - evals0);
        if (built->size() != datasetSize)
            result.fail("dataset came back with " +
                        std::to_string(built->size()) + " samples");
        if (data) {
            bool same = built->size() == data->size();
            for (std::size_t i = 0; same && i < data->size(); ++i)
                same = built->samples()[i].logLatency ==
                           data->samples()[i].logLatency &&
                       built->samples()[i].config ==
                           data->samples()[i].config;
            if (!same)
                result.fail("set-up repeats built different datasets");
        }
        data = std::move(built);
    }
    pinThread(0, allowedCpus());

    double finalLoss = std::nan("");
    const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
    std::vector<Trial> trials;
    std::vector<TrainPhase> phases(trialsPerRun);
    {
        const CpuRotator rotator({{{callerTid()}, 1}});
        for (TrainPhase &p : phases) {
            trainRounds(p, *data, opts.seed, budget / trialsPerRun, false,
                        &finalLoss, result);
            trials.push_back({p.tally, p.rows, p.wallSec});
        }
    }
    std::printf("train: %zu-row dataset, rounds of %zu epochs, "
                "final_loss %.9g, %.6g rows/s overall\n",
                data->size(), epochsPerRound, finalLoss,
                overallOpsPerSec(trials));
    if (!opts.trace) {
        addEndToEnd(result, trials, setups, selfPeakRssMib());
        return result.correct() ? 0 : 1;
    }
    printTrials(trials);

    metrics::setMetricsEnabled(true);
    const double calls0 =
        static_cast<double>(metrics::counter("gemm.calls").value());
    const double flops0 =
        static_cast<double>(metrics::counter("gemm.flops").value());
    const double ns0 =
        static_cast<double>(metrics::histogram("gemm.ns").sum());
    TrainPhase traced;
    {
        const CpuRotator rotator({{{callerTid()}, 1}});
        trainRounds(traced, *data, opts.seed, opts.seconds / 2, true,
                    &finalLoss, result);
    }
    const double calls =
        static_cast<double>(metrics::counter("gemm.calls").value()) -
        calls0;
    const double flops =
        static_cast<double>(metrics::counter("gemm.flops").value()) -
        flops0;
    const double gemmNs =
        static_cast<double>(metrics::histogram("gemm.ns").sum()) - ns0;
    metrics::setMetricsEnabled(false);
    result.attempted = traced.tally.attempted();
    result.failed = traced.tally.failed();

    std::vector<const SpanLog *> logs = {&traced.log};
    double opMs = 0.0;
    const std::vector<LayerRow> rows = layerBreakdown(logs, &opMs);
    printBreakdown(rows, opMs);
    std::printf("  inside vaesa.train: GEMM %.3f ms of %.3f ms (%.1f%%)\n",
                gemmNs / 1e6, opMs, 100.0 * gemmNs / 1e6 / opMs);
    double uncovered = 0.0;
    for (const LayerRow &row : rows)
        if (row.layer == "uncovered")
            uncovered = row.selfMs;
    writeSpans(opts.outDir + "/train_spans.csv", logs);

    const double untracedOps = overallOpsPerSec(trials);
    const double tracedOps =
        static_cast<double>(traced.rows) / traced.wallSec;
    result.add("train.epoch_ms", median(traced.epochMs), "ms");
    result.add("gemm.calls", calls, "count");
    result.add("gemm.flops", flops, "count");
    addRatio(result, "gemm.share", gemmNs, traced.wallSec * 1e9,
             "gemm ns / traced wall ns");
    result.add("gemm.gflops_per_s", gemmNs > 0 ? flops / gemmNs : 0.0,
               "GFLOP/s");
    result.add("dataset.build_s", median(setups), "s");
    addRatio(result, "dataset.evals_per_sample", buildEvals,
             static_cast<double>(data->size()),
             "layer evaluations / valid samples");
    addRatio(result, "trace.uncovered_share", uncovered, opMs,
             "op ms no span covers / op ms");
    addRatio(result, "trace.ops_ratio", tracedOps, untracedOps,
             "tracing overhead: traced rows/s / untraced rows/s");

    // The dataset's (config, layer) pairs through the mapper and the
    // batch cost model: the work behind this workload's set-up.
    std::vector<AcceleratorConfig> configs;
    std::vector<std::size_t> layerOf;
    for (const DataSample &s : data->samples()) {
        configs.push_back(s.config);
        layerOf.push_back(s.layerIndex);
    }
    const ReplayCost replay =
        replayPairs(configs, layerOf, data->layerPool(), nullptr);
    result.add("sched.mapper_ns", replay.mapperNs, "ns");
    result.add("costmodel.ns_per_item", replay.costNsPerItem, "ns");
    return result.correct() ? 0 : 1;
}

} // namespace perfbench
