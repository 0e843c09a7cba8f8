#include "vaesa/trainer.hh"

#include <algorithm>

#include <cmath>

#include "nn/loss.hh"
#include "nn/optim.hh"
#include "util/contracts.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "util/trace.hh"
#include "vaesa/checkpoint.hh"

namespace vaesa {

namespace {

/** Gather the rows of src listed in idx[begin, end) into out. */
void
gatherRowsInto(const Matrix &src, const std::vector<std::size_t> &idx,
               std::size_t begin, std::size_t end, Matrix &out)
{
    const std::size_t cols = src.cols();
    out.resizeBuffer(end - begin, cols);
    for (std::size_t i = begin; i < end; ++i) {
        const double *from = src.data() + idx[i] * cols;
        std::copy(from, from + cols,
                  out.data() + (i - begin) * cols);
    }
}

/** Training-loop observability instruments, resolved once. */
struct TrainMetrics
{
    metrics::Counter &epochs = metrics::counter("train.epochs");
    metrics::Gauge &reconLoss = metrics::gauge("train.recon_loss");
    metrics::Gauge &kldLoss = metrics::gauge("train.kld_loss");
    metrics::Gauge &latencyLoss =
        metrics::gauge("train.latency_loss");
    metrics::Gauge &energyLoss = metrics::gauge("train.energy_loss");
    metrics::Gauge &totalLoss = metrics::gauge("train.total_loss");
    metrics::Gauge &gradNorm = metrics::gauge("train.grad_norm");
    metrics::Histogram &epochNs =
        metrics::histogram("train.epoch_ns");
    // One minibatch step, split into the stages that add up to it.
    metrics::Histogram &forwardNs =
        metrics::histogram("train.forward_ns");
    metrics::Histogram &lossNs = metrics::histogram("train.loss_ns");
    metrics::Histogram &backwardNs =
        metrics::histogram("train.backward_ns");
    metrics::Histogram &adamNs = metrics::histogram("train.adam_ns");
    metrics::Histogram &checkpointNs =
        metrics::histogram("train.checkpoint_ns");
};

TrainMetrics &
trainMetrics()
{
    static TrainMetrics m;
    return m;
}

/** L2 norm over every accumulated parameter gradient. */
double
gradientNorm(const std::vector<nn::Parameter *> &params)
{
    double sumSq = 0.0;
    for (const nn::Parameter *p : params) {
        const double *g = p->grad.data();
        for (std::size_t i = 0; i < p->grad.size(); ++i)
            sumSq += g[i] * g[i];
    }
    return std::sqrt(sumSq);
}

} // namespace

Trainer::Trainer(Vae &vae, Predictor &latency, Predictor &energy,
                 const TrainOptions &options)
    : vae_(vae), latency_(latency), energy_(energy), options_(options)
{
    if (latency_.options().designDim != vae_.latentDim() ||
        energy_.options().designDim != vae_.latentDim()) {
        fatal("Trainer: predictor designDim must equal the VAE latent "
              "dimensionality");
    }
    std::vector<nn::Parameter *> params = vae_.parameters();
    for (nn::Parameter *p : latency_.parameters())
        params.push_back(p);
    for (nn::Parameter *p : energy_.parameters())
        params.push_back(p);
    optimizer_ = std::make_unique<nn::Adam>(std::move(params),
                                            options_.learningRate);
}

EpochStats
Trainer::runEpoch(const Matrix &hw, const Matrix &layer,
                  const Matrix &lat_labels, const Matrix &en_labels,
                  Rng &rng, bool update)
{
    const std::size_t n = hw.rows();
    if (layer.rows() != n || lat_labels.rows() != n ||
        en_labels.rows() != n) {
        fatal("Trainer: inconsistent row counts across matrices");
    }
    if (update) {
        rng.permutationInto(n, orderBuf_);
    } else {
        orderBuf_.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            orderBuf_[i] = i;
    }

    TrainMetrics &tm = trainMetrics();
    EpochStats stats;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < n;
         begin += options_.batchSize) {
        const std::size_t end =
            std::min(n, begin + options_.batchSize);
        gatherRowsInto(hw, orderBuf_, begin, end, xBuf_);
        gatherRowsInto(layer, orderBuf_, begin, end, featsBuf_);
        gatherRowsInto(lat_labels, orderBuf_, begin, end, yLatBuf_);
        gatherRowsInto(en_labels, orderBuf_, begin, end, yEnBuf_);

        const Matrix *pred_lat = nullptr;
        const Matrix *pred_en = nullptr;
        {
            const metrics::ScopedTimer timer(tm.forwardNs);
            vae_.forwardInto(xBuf_, rng, update, fr_);
            pred_lat = &latency_.forward(fr_.z, featsBuf_);
            pred_en = &energy_.forward(fr_.z, featsBuf_);
        }
        {
            const metrics::ScopedTimer timer(tm.lossNs);
            nn::mseLossInto(fr_.recon, xBuf_, reconLoss_);
            nn::gaussianKldInto(fr_.mu, fr_.logvar, kldLoss_);
            nn::mseLossInto(*pred_lat, yLatBuf_, latLoss_);
            nn::mseLossInto(*pred_en, yEnBuf_, enLoss_);
        }

        // A NaN born in any loss term poisons the whole epoch mean
        // and, through Adam, every parameter; catch it at the batch
        // where it first appears.
        VAESA_CHECK_FINITE(reconLoss_.value,
                           "reconstruction loss, batch at row ",
                           begin);
        VAESA_CHECK_FINITE(kldLoss_.value, "KLD loss, batch at row ",
                           begin);
        VAESA_CHECK_FINITE(latLoss_.value,
                           "latency-predictor loss, batch at row ",
                           begin);
        VAESA_CHECK_FINITE(enLoss_.value,
                           "energy-predictor loss, batch at row ",
                           begin);

        stats.reconLoss += reconLoss_.value;
        stats.kldLoss += kldLoss_.value;
        stats.latencyLoss += latLoss_.value;
        stats.energyLoss += enLoss_.value;
        ++batches;

        if (update) {
            {
                const metrics::ScopedTimer timer(tm.backwardNs);
                optimizer_->zeroGrad();

                // The loss gradients live in member buffers, so they
                // can be scaled in place and fed straight to the
                // backward passes.
                latLoss_.grad.scale(options_.predictorWeight);
                enLoss_.grad.scale(options_.predictorWeight);
                gradZBuf_.copyFrom(latency_.backward(latLoss_.grad));
                gradZBuf_.add(energy_.backward(enLoss_.grad));
                VAESA_CHECK_FINITE_ALL(gradZBuf_,
                                       "predictor gradient into z, "
                                       "batch at row ", begin);

                kldLoss_.gradMu.scale(options_.kldWeight);
                kldLoss_.gradLogvar.scale(options_.kldWeight);

                vae_.backward(fr_, reconLoss_.grad, kldLoss_.gradMu,
                              kldLoss_.gradLogvar, gradZBuf_);
            }
            const metrics::ScopedTimer timer(tm.adamNs);
            optimizer_->step();
        }
    }

    if (batches > 0) {
        const double inv = 1.0 / static_cast<double>(batches);
        stats.reconLoss *= inv;
        stats.kldLoss *= inv;
        stats.latencyLoss *= inv;
        stats.energyLoss *= inv;
    }
    stats.totalLoss = stats.reconLoss +
                      options_.kldWeight * stats.kldLoss +
                      options_.predictorWeight *
                          (stats.latencyLoss + stats.energyLoss);
    return stats;
}

std::vector<EpochStats>
Trainer::train(const Dataset &data, Rng &rng)
{
    return train(data.hwFeatures(), data.layerFeatures(),
                 data.latencyLabels(), data.energyLabels(), rng);
}

std::vector<EpochStats>
Trainer::train(const Matrix &hw_features, const Matrix &layer_features,
               const Matrix &latency_labels,
               const Matrix &energy_labels, Rng &rng)
{
    if (options_.checkpointEvery == 0)
        fatal("Trainer: checkpointEvery must be >= 1");
    const bool checkpointing = !options_.checkpointPath.empty();

    std::vector<EpochStats> history;
    history.reserve(options_.epochs);
    std::size_t start_epoch = 0;

    if (checkpointing) {
        Expected<TrainCheckpoint> resumed =
            loadTrainCheckpoint(options_.checkpointPath, *optimizer_);
        if (resumed) {
            // Checkpoints are cut at epoch boundaries with the full
            // RNG state, so continuing from one replays the exact
            // stream an uninterrupted run would have drawn.
            start_epoch = static_cast<std::size_t>(
                resumed.value().epochsDone);
            history = std::move(resumed.value().history);
            rng.setState(resumed.value().rng);
            inform("resuming training from '",
                   options_.checkpointPath, "' at epoch ",
                   start_epoch, "/", options_.epochs);
        } else if (resumed.error().kind !=
                   LoadError::Kind::OpenFailed) {
            warn("ignoring unusable checkpoint: ",
                 resumed.error().describe());
        }
    }

    TrainMetrics &tm = trainMetrics();
    for (std::size_t epoch = start_epoch; epoch < options_.epochs;
         ++epoch) {
        // Cooperative stop (SIGTERM et al.): cut at the epoch
        // boundary, persist the completed epochs, and return. The
        // epoch-boundary checkpoint below already covered this state
        // when checkpointEvery == 1; writing it unconditionally here
        // makes the guarantee hold for any cadence.
        if (options_.stopFlag != nullptr &&
            options_.stopFlag->load(std::memory_order_relaxed)) {
            if (checkpointing) {
                TrainCheckpoint checkpoint;
                checkpoint.epochsDone = epoch;
                checkpoint.history = history;
                checkpoint.rng = rng.state();
                if (auto err = saveTrainCheckpoint(
                        options_.checkpointPath, checkpoint,
                        *optimizer_))
                    warn("stop checkpoint save failed: ",
                         err->describe());
            }
            inform("training stopped at epoch boundary ", epoch,
                   "/", options_.epochs);
            return history;
        }
        faultCheck("train_epoch");
        const bool instrument = metrics::metricsEnabled();
        const std::uint64_t epoch_t0 =
            instrument ? metrics::monotonicNowNs() : 0;
        {
            const trace::Span span("train.epoch");
            history.push_back(runEpoch(hw_features, layer_features,
                                       latency_labels, energy_labels,
                                       rng, true));
        }
        tm.epochs.inc();
        const EpochStats &stats = history.back();
        tm.reconLoss.set(stats.reconLoss);
        tm.kldLoss.set(stats.kldLoss);
        tm.latencyLoss.set(stats.latencyLoss);
        tm.energyLoss.set(stats.energyLoss);
        tm.totalLoss.set(stats.totalLoss);
        if (instrument) {
            tm.epochNs.observe(metrics::monotonicNowNs() - epoch_t0);
            // The last minibatch's gradients are still in the
            // accumulators; their norm is the standard divergence
            // early-warning signal. O(parameters), so gated.
            tm.gradNorm.set(gradientNorm(optimizer_->params()));
        }
        debugLog("epoch ", epoch, " recon=",
                 history.back().reconLoss, " kld=",
                 history.back().kldLoss, " lat=",
                 history.back().latencyLoss, " en=",
                 history.back().energyLoss);
        if (checkpointing &&
            ((epoch + 1) % options_.checkpointEvery == 0 ||
             epoch + 1 == options_.epochs)) {
            TrainCheckpoint checkpoint;
            checkpoint.epochsDone = epoch + 1;
            checkpoint.history = history;
            checkpoint.rng = rng.state();
            const std::uint64_t ckpt_t0 =
                instrument ? metrics::monotonicNowNs() : 0;
            {
                const trace::Span span("train.checkpoint");
                if (auto err = saveTrainCheckpoint(
                        options_.checkpointPath, checkpoint,
                        *optimizer_))
                    warn("checkpoint save failed: ",
                         err->describe());
            }
            if (instrument)
                tm.checkpointNs.observe(metrics::monotonicNowNs() -
                                        ckpt_t0);
        }
    }
    return history;
}

PredictorTrainer::PredictorTrainer(Predictor &predictor,
                                   const TrainOptions &options)
    : predictor_(predictor), options_(options)
{
    optimizer_ = std::make_unique<nn::Adam>(predictor_.parameters(),
                                            options_.learningRate);
}

std::vector<double>
PredictorTrainer::train(const Matrix &design, const Matrix &layer_feats,
                        const Matrix &labels, Rng &rng)
{
    if (design.rows() != layer_feats.rows() ||
        design.rows() != labels.rows()) {
        fatal("PredictorTrainer: inconsistent row counts");
    }
    const std::size_t n = design.rows();
    std::vector<double> history;
    history.reserve(options_.epochs);

    for (std::size_t epoch = 0; epoch < options_.epochs; ++epoch) {
        rng.permutationInto(n, orderBuf_);
        double epoch_loss = 0.0;
        std::size_t batches = 0;
        for (std::size_t begin = 0; begin < n;
             begin += options_.batchSize) {
            const std::size_t end =
                std::min(n, begin + options_.batchSize);
            gatherRowsInto(design, orderBuf_, begin, end, xBuf_);
            gatherRowsInto(layer_feats, orderBuf_, begin, end,
                           featsBuf_);
            gatherRowsInto(labels, orderBuf_, begin, end, yBuf_);

            const Matrix &pred = predictor_.forward(xBuf_, featsBuf_);
            nn::mseLossInto(pred, yBuf_, lossBuf_);
            epoch_loss += lossBuf_.value;
            ++batches;

            optimizer_->zeroGrad();
            predictor_.backward(lossBuf_.grad);
            optimizer_->step();
        }
        history.push_back(batches ? epoch_loss /
                                        static_cast<double>(batches)
                                  : 0.0);
    }
    return history;
}

} // namespace vaesa
