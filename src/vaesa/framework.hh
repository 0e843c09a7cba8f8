/**
 * @file
 * VaesaFramework: the end-to-end public API of the reproduction.
 * Owns a trained VAE + predictor pair together with the dataset's
 * normalizers, and exposes the encode/decode/predict primitives that
 * the latent-space search flows (Figure 6) are built from.
 */

#ifndef VAESA_VAESA_FRAMEWORK_HH
#define VAESA_VAESA_FRAMEWORK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "vaesa/dataset.hh"
#include "vaesa/predictor.hh"
#include "vaesa/trainer.hh"
#include "vaesa/vae.hh"

namespace vaesa {

/** All hyperparameters of a framework instance. */
struct FrameworkOptions
{
    /** VAE architecture. */
    VaeOptions vae;

    /** Predictor hidden widths (designDim is set automatically). */
    std::vector<std::size_t> predictorHidden = {64, 64};

    /** Training hyperparameters. */
    TrainOptions train;
};

/** A trained VAESA instance. */
class VaesaFramework
{
  public:
    /**
     * Construct and train end-to-end on a dataset.
     * @param data training set (normalizers are copied from it).
     * @param options hyperparameters.
     * @param seed controls init, shuffling, and sampling noise.
     */
    VaesaFramework(const Dataset &data, const FrameworkOptions &options,
                   std::uint64_t seed);

    /**
     * Construct an UNTRAINED instance with explicit normalizers --
     * weights are randomly initialized until loadFramework()
     * overwrites them. Used to restore saved
     * snapshots without a dataset.
     */
    VaesaFramework(const FrameworkOptions &options, std::uint64_t seed,
                   const Normalizer &hw_norm,
                   const Normalizer &layer_norm,
                   const Normalizer &lat_norm,
                   const Normalizer &en_norm);

    /** Per-epoch training losses. */
    const std::vector<EpochStats> &history() const { return history_; }

    /**
     * Continue training on additional data (the paper's
     * grow-the-dataset-and-fine-tune flow, Section III-B3). The new
     * dataset may have different extrema; its raw samples are
     * re-normalized with THIS instance's normalizers so weights and
     * scalings stay consistent. Optimizer moments restart.
     *
     * @param data new (or merged) dataset over the same layer pool.
     * @param epochs additional epochs.
     * @param seed shuffling/noise seed.
     * @return the per-epoch losses of the fine-tuning run (also
     *         appended to history()).
     */
    std::vector<EpochStats> fineTune(const Dataset &data,
                                     std::size_t epochs,
                                     std::uint64_t seed);

    /** Latent dimensionality. */
    std::size_t latentDim() const { return vae_->latentDim(); }

    /** Encode one configuration to its latent mean. */
    std::vector<double> encodeConfig(const AcceleratorConfig &config);

    /** Decode one latent point to the nearest legal configuration. */
    AcceleratorConfig decodeLatent(const std::vector<double> &z);

    /** Normalized layer-feature row for the predictors. */
    std::vector<double>
    normalizedLayerFeatures(const LayerShape &layer) const;

    /**
     * Predictor-based search score at z for given normalized layer
     * features: the sum of the normalized log-latency and log-energy
     * predictions, a monotone transform of predicted EDP.
     * @param grad_z optional output, d(score)/dz.
     */
    double predictScore(const std::vector<double> &z,
                        const std::vector<double> &layer_feats,
                        std::vector<double> *grad_z = nullptr);

    /**
     * Half-width of a latent search box covering the training data's
     * encodings: the given quantile of per-dimension |mu| over the
     * dataset, padded by 20%. Used to size LatentObjective boxes when
     * the KLD weight is too small to pin encodings near N(0, I).
     */
    double latentRadius(const Dataset &data, double quantile = 0.99);

    /** The underlying VAE (e.g.\ for serialization). */
    Vae &vae() { return *vae_; }

    /** The latency head. */
    Predictor &latencyPredictor() { return *latencyPred_; }

    /** The energy head. */
    Predictor &energyPredictor() { return *energyPred_; }

    /** Hardware-feature normalizer (design-space grid bounds). */
    const Normalizer &hwNormalizer() const { return hwNorm_; }

    /** Layer-feature normalizer. */
    const Normalizer &layerNormalizer() const { return layerNorm_; }

    /** Latency-label normalizer. */
    const Normalizer &latencyNormalizer() const { return latNorm_; }

    /** Energy-label normalizer. */
    const Normalizer &energyNormalizer() const { return enNorm_; }

    /** All learnable parameters (for save/load). */
    std::vector<nn::Parameter *> parameters();

    /** Hyperparameters of this instance. */
    const FrameworkOptions &frameworkOptions() const
    {
        return options_;
    }

  private:
    /** Build the (untrained) VAE and predictor heads. */
    void buildModels(Rng &rng);

    FrameworkOptions options_;
    std::unique_ptr<Vae> vae_;
    std::unique_ptr<Predictor> latencyPred_;
    std::unique_ptr<Predictor> energyPred_;
    Normalizer hwNorm_;
    Normalizer layerNorm_;
    Normalizer latNorm_;
    Normalizer enNorm_;
    std::vector<EpochStats> history_;

    // Scratch for the decode/predict hot paths (reused so the
    // LatentObjective evaluation loop is allocation-free after
    // warm-up). NOT thread-safe; latent-space objectives declare
    // threadSafeEvaluate() == false and run on the calling thread.
    Matrix zBuf_;
    Matrix featsBuf_;
    Matrix onesBuf_;
    Matrix gradBuf_;
    std::vector<double> featsUnitBuf_;
    std::vector<double> invBuf_;
};

} // namespace vaesa

#endif // VAESA_VAESA_FRAMEWORK_HH
