#include "vaesa/dataset.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace vaesa {

Dataset::Dataset(std::vector<DataSample> samples,
                 std::vector<LayerShape> layer_pool)
    : samples_(std::move(samples)), pool_(std::move(layer_pool))
{
    if (samples_.empty())
        fatal("Dataset constructed with no samples (design space too "
              "hostile or budget too small)");

    const std::size_t n = samples_.size();
    Matrix hw_raw(n, numHwParams);
    Matrix layer_raw(n, numLayerFeatures);
    Matrix lat_raw(n, 1);
    Matrix en_raw(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
        hw_raw.setRow(i, samples_[i].hwFeatures);
        layer_raw.setRow(i, samples_[i].layerFeatures);
        lat_raw(i, 0) = samples_[i].logLatency;
        en_raw(i, 0) = samples_[i].logEnergy;
    }

    hwNorm_.setBounds(designSpace().featureLowerBounds(),
                      designSpace().featureUpperBounds());
    layerNorm_.fit(layer_raw);
    latNorm_.fit(lat_raw);
    enNorm_.fit(en_raw);

    hw_ = hwNorm_.transform(hw_raw);
    layer_ = layerNorm_.transform(layer_raw);
    latency_ = latNorm_.transform(lat_raw);
    energy_ = enNorm_.transform(en_raw);
}

DatasetBuilder::DatasetBuilder(const Evaluator &evaluator,
                               std::vector<LayerShape> layer_pool)
    : evaluator_(evaluator), pool_(std::move(layer_pool))
{
    if (pool_.empty())
        fatal("DatasetBuilder needs a non-empty layer pool");
}

void
DatasetBuilder::setLayerWeights(std::vector<double> weights)
{
    if (weights.empty()) {
        cumulativeWeights_.clear();
        return;
    }
    if (weights.size() != pool_.size())
        fatal("DatasetBuilder::setLayerWeights: ", weights.size(),
              " weights for ", pool_.size(), " pool layers");
    cumulativeWeights_.resize(weights.size());
    double running = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (!(weights[i] > 0.0) || !std::isfinite(weights[i]))
            fatal("DatasetBuilder::setLayerWeights: weight ", i,
                  " must be positive and finite");
        running += weights[i];
        cumulativeWeights_[i] = running;
    }
}

Dataset
DatasetBuilder::build(std::size_t target_samples, Rng &rng,
                      std::size_t max_attempts_factor) const
{
    std::vector<DataSample> samples;
    samples.reserve(target_samples);
    const std::size_t max_attempts =
        target_samples * max_attempts_factor;
    std::size_t attempts = 0;
    std::size_t rejected = 0;

    while (samples.size() < target_samples &&
           attempts < max_attempts) {
        ++attempts;
        const AcceleratorConfig config =
            designSpace().randomConfig(rng);
        std::size_t layer_idx;
        if (cumulativeWeights_.empty()) {
            layer_idx = rng.index(pool_.size());
        } else {
            // Inverse-CDF draw over the cumulative weights; uniform()
            // is in [0,1) so u never reaches the total and the
            // upper_bound is always a valid pool index.
            const double u =
                rng.uniform() * cumulativeWeights_.back();
            layer_idx = static_cast<std::size_t>(
                std::upper_bound(cumulativeWeights_.begin(),
                                 cumulativeWeights_.end(), u) -
                cumulativeWeights_.begin());
            layer_idx = std::min(layer_idx, pool_.size() - 1);
        }
        const LayerShape &layer = pool_[layer_idx];
        const EvalResult result =
            evaluator_.evaluateLayer(config, layer);
        if (!result.valid || result.latencyCycles <= 0.0 ||
            result.energyPj <= 0.0) {
            ++rejected;
            continue;
        }
        DataSample sample;
        sample.config = config;
        sample.layerIndex = layer_idx;
        sample.hwFeatures = designSpace().toFeatures(config);
        sample.layerFeatures = layer.toFeatures();
        sample.logLatency = log2d(result.latencyCycles);
        sample.logEnergy = log2d(result.energyPj);
        samples.push_back(std::move(sample));
    }

    if (samples.size() < target_samples) {
        warn("DatasetBuilder: gathered only ", samples.size(), " of ",
             target_samples, " samples after ", attempts, " draws");
    }
    debugLog("DatasetBuilder: ", samples.size(), " valid samples, ",
             rejected, " rejected draws");
    return Dataset(std::move(samples), pool_);
}

} // namespace vaesa
