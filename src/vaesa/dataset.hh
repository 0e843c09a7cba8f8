/**
 * @file
 * Dataset construction for the VAE training pipeline (Section III-B3):
 * (hardware features, layer features, log-latency, log-energy) tuples
 * gathered by random/grid sampling of the design space, with only
 * valid (mappable) points retained.
 */

#ifndef VAESA_VAESA_DATASET_HH
#define VAESA_VAESA_DATASET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "sched/evaluator.hh"
#include "tensor/matrix.hh"
#include "util/rng.hh"
#include "vaesa/normalizer.hh"
#include "workload/layer.hh"

namespace vaesa {

/** One training tuple. */
struct DataSample
{
    /** The sampled configuration. */
    AcceleratorConfig config;

    /** Index of the layer in the builder's layer pool. */
    std::size_t layerIndex = 0;

    /** log2 hardware features (6). */
    std::vector<double> hwFeatures;

    /** log2 layer features (8). */
    std::vector<double> layerFeatures;

    /** log2 of latency in cycles. */
    double logLatency = 0.0;

    /** log2 of energy in pJ. */
    double logEnergy = 0.0;
};

/**
 * An assembled dataset with fitted normalizers and matrix views.
 * Hardware-feature normalization uses the design-space grid bounds
 * (dataset-independent, so decode round-trips exactly); layer features
 * and labels use dataset extrema.
 */
class Dataset
{
  public:
    /** Build matrices and fit normalizers from samples. */
    Dataset(std::vector<DataSample> samples,
            std::vector<LayerShape> layer_pool);

    /** Number of samples. */
    std::size_t size() const { return samples_.size(); }

    /** The raw samples. */
    const std::vector<DataSample> &samples() const { return samples_; }

    /** The layer pool the samples index into. */
    const std::vector<LayerShape> &layerPool() const { return pool_; }

    /** Normalized hardware features, (n x 6) in [0,1). */
    const Matrix &hwFeatures() const { return hw_; }

    /** Normalized layer features, (n x 8) in [0,1). */
    const Matrix &layerFeatures() const { return layer_; }

    /** Normalized log-latency labels, (n x 1). */
    const Matrix &latencyLabels() const { return latency_; }

    /** Normalized log-energy labels, (n x 1). */
    const Matrix &energyLabels() const { return energy_; }

    /** Hardware-feature normalizer (grid bounds). */
    const Normalizer &hwNormalizer() const { return hwNorm_; }

    /** Layer-feature normalizer (dataset extrema). */
    const Normalizer &layerNormalizer() const { return layerNorm_; }

    /** Latency-label normalizer. */
    const Normalizer &latencyNormalizer() const { return latNorm_; }

    /** Energy-label normalizer. */
    const Normalizer &energyNormalizer() const { return enNorm_; }

  private:
    std::vector<DataSample> samples_;
    std::vector<LayerShape> pool_;
    Matrix hw_;
    Matrix layer_;
    Matrix latency_;
    Matrix energy_;
    Normalizer hwNorm_;
    Normalizer layerNorm_;
    Normalizer latNorm_;
    Normalizer enNorm_;
};

/** Randomized dataset builder over a layer pool. */
class DatasetBuilder
{
  public:
    /**
     * @param evaluator scoring backend (borrowed; must outlive this).
     * @param layer_pool layers paired with sampled configurations.
     */
    DatasetBuilder(const Evaluator &evaluator,
                   std::vector<LayerShape> layer_pool);

    /**
     * Bias layer draws by positive relative weights (one per pool
     * layer) instead of the default uniform pick — the mixed-workload
     * training path feeds mixLayerPool()'s traffic-weighted
     * occurrence rates through here so BERT's per-head GEMMs appear
     * in proportion to how often the mix actually runs them. Without
     * this call (or with an empty vector) build() keeps its original
     * uniform rng.index() draw, bit-identical to older datasets.
     * fatal() on a size mismatch or a non-positive/non-finite weight.
     */
    void setLayerWeights(std::vector<double> weights);

    /**
     * Draw (config, layer) pairs at random — layers uniformly, or by
     * setLayerWeights() when given — keep the valid ones, and
     * assemble a Dataset.
     * @param target_samples number of valid samples to gather.
     * @param rng seeded generator.
     * @param max_attempts_factor give up after target * factor draws.
     */
    Dataset build(std::size_t target_samples, Rng &rng,
                  std::size_t max_attempts_factor = 20) const;

  private:
    const Evaluator &evaluator_;
    std::vector<LayerShape> pool_;
    /** Cumulative weight per pool layer; empty = uniform draws. */
    std::vector<double> cumulativeWeights_;
};

} // namespace vaesa

#endif // VAESA_VAESA_DATASET_HH
