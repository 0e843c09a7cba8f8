#include "vaesa/framework.hh"

#include <cmath>

#include "util/stats.hh"
#include "util/logging.hh"
#include "util/metrics.hh"

namespace vaesa {

VaesaFramework::VaesaFramework(const Dataset &data,
                               const FrameworkOptions &options,
                               std::uint64_t seed)
    : options_(options),
      hwNorm_(data.hwNormalizer()),
      layerNorm_(data.layerNormalizer()),
      latNorm_(data.latencyNormalizer()),
      enNorm_(data.energyNormalizer())
{
    Rng rng(seed);
    buildModels(rng);
    Trainer trainer(*vae_, *latencyPred_, *energyPred_,
                    options_.train);
    history_ = trainer.train(data, rng);
}

VaesaFramework::VaesaFramework(const FrameworkOptions &options,
                               std::uint64_t seed,
                               const Normalizer &hw_norm,
                               const Normalizer &layer_norm,
                               const Normalizer &lat_norm,
                               const Normalizer &en_norm)
    : options_(options), hwNorm_(hw_norm), layerNorm_(layer_norm),
      latNorm_(lat_norm), enNorm_(en_norm)
{
    Rng rng(seed);
    buildModels(rng);
}

void
VaesaFramework::buildModels(Rng &rng)
{
    vae_ = std::make_unique<Vae>(options_.vae, rng);

    PredictorOptions pred_opts;
    pred_opts.designDim = options_.vae.latentDim;
    pred_opts.layerDim = numLayerFeatures;
    pred_opts.hiddenDims = options_.predictorHidden;
    pred_opts.leakySlope = options_.vae.leakySlope;
    latencyPred_ = std::make_unique<Predictor>(pred_opts, rng,
                                               "latency");
    energyPred_ = std::make_unique<Predictor>(pred_opts, rng,
                                              "energy");
}

std::vector<EpochStats>
VaesaFramework::fineTune(const Dataset &data, std::size_t epochs,
                         std::uint64_t seed)
{
    // Re-normalize the new samples with this instance's scalers.
    const std::size_t n = data.size();
    Matrix hw_raw(n, numHwParams);
    Matrix layer_raw(n, numLayerFeatures);
    Matrix lat_raw(n, 1);
    Matrix en_raw(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
        const DataSample &s = data.samples()[i];
        hw_raw.setRow(i, s.hwFeatures);
        layer_raw.setRow(i, s.layerFeatures);
        lat_raw(i, 0) = s.logLatency;
        en_raw(i, 0) = s.logEnergy;
    }

    TrainOptions tune = options_.train;
    tune.epochs = epochs;
    Trainer trainer(*vae_, *latencyPred_, *energyPred_, tune);
    Rng rng(seed);
    const std::vector<EpochStats> tuned = trainer.train(
        hwNorm_.transform(hw_raw), layerNorm_.transform(layer_raw),
        latNorm_.transform(lat_raw), enNorm_.transform(en_raw),
        rng);
    history_.insert(history_.end(), tuned.begin(), tuned.end());
    return tuned;
}

std::vector<double>
VaesaFramework::encodeConfig(const AcceleratorConfig &config)
{
    const std::vector<double> feats =
        hwNorm_.transform(designSpace().toFeatures(config));
    Matrix x(1, feats.size());
    x.setRow(0, feats);
    return vae_->encodeMean(x).row(0);
}

AcceleratorConfig
VaesaFramework::decodeLatent(const std::vector<double> &z)
{
    // Every latent-space driver (BO/random/GD) decodes through
    // here, so this one site covers decode counting + timing for all
    // of them. Runs on the calling thread (latent objectives declare
    // threadSafeEvaluate() == false), which is what lets it reuse
    // the member scratch buffers allocation-free.
    static metrics::Counter &decodesMetric =
        metrics::counter("search.decodes");
    static metrics::Histogram &decodeNsMetric =
        metrics::histogram("search.decode_ns");
    decodesMetric.inc();
    const metrics::ScopedTimer timer(decodeNsMetric);
    if (z.size() != latentDim())
        panic("decodeLatent: latent width ", z.size(), " != ",
              latentDim());
    zBuf_.resizeBuffer(1, z.size());
    zBuf_.setRow(0, z);
    vae_->decode(zBuf_).copyRowInto(0, featsUnitBuf_);
    hwNorm_.inverseInto(featsUnitBuf_, invBuf_);
    return designSpace().fromFeatures(invBuf_);
}

std::vector<double>
VaesaFramework::normalizedLayerFeatures(const LayerShape &layer) const
{
    return layerNorm_.transform(layer.toFeatures());
}

double
VaesaFramework::predictScore(const std::vector<double> &z,
                             const std::vector<double> &layer_feats,
                             std::vector<double> *grad_z)
{
    zBuf_.resizeBuffer(1, z.size());
    zBuf_.setRow(0, z);
    featsBuf_.resizeBuffer(1, layer_feats.size());
    featsBuf_.setRow(0, layer_feats);
    onesBuf_.resizeBuffer(1, 1);
    onesBuf_(0, 0) = 1.0;

    double score = latencyPred_->forward(zBuf_, featsBuf_)(0, 0);
    if (grad_z)
        gradBuf_.copyFrom(latencyPred_->backward(onesBuf_));

    score += energyPred_->forward(zBuf_, featsBuf_)(0, 0);
    if (grad_z) {
        gradBuf_.add(energyPred_->backward(onesBuf_));
        gradBuf_.copyRowInto(0, *grad_z);
    }
    return score;
}

double
VaesaFramework::latentRadius(const Dataset &data, double quantile)
{
    const Matrix mu = vae_->encodeMean(data.hwFeatures());
    std::vector<double> magnitudes;
    magnitudes.reserve(mu.size());
    for (std::size_t r = 0; r < mu.rows(); ++r)
        for (std::size_t c = 0; c < mu.cols(); ++c)
            magnitudes.push_back(std::fabs(mu(r, c)));
    return 1.2 * percentile(std::move(magnitudes), quantile);
}

std::vector<nn::Parameter *>
VaesaFramework::parameters()
{
    std::vector<nn::Parameter *> params = vae_->parameters();
    for (nn::Parameter *p : latencyPred_->parameters())
        params.push_back(p);
    for (nn::Parameter *p : energyPred_->parameters())
        params.push_back(p);
    return params;
}

} // namespace vaesa
