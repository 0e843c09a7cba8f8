/**
 * @file
 * End-to-end training of the VAESA pipeline (Figure 3, Eq. 1-2):
 *   L = L_recon + alpha * L_kld + L_latency + L_energy,
 * with predictor gradients flowing through the sampled z into the
 * encoder. Also provides a plain supervised trainer for standalone
 * predictors (the input-space gd baseline).
 */

#ifndef VAESA_VAESA_TRAINER_HH
#define VAESA_VAESA_TRAINER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/loss.hh"
#include "nn/optim.hh"
#include "util/rng.hh"
#include "vaesa/dataset.hh"
#include "vaesa/predictor.hh"
#include "vaesa/vae.hh"

namespace vaesa {

/** Training hyperparameters. */
struct TrainOptions
{
    /** Passes over the dataset. */
    std::size_t epochs = 30;

    /** Minibatch size. */
    std::size_t batchSize = 64;

    /** Adam learning rate. */
    double learningRate = 1e-3;

    /** Weight alpha on the KLD term (Eq. 1; paper default 1e-4). */
    double kldWeight = 1e-4;

    /** Weight on the summed predictor MSE losses (Eq. 2). */
    double predictorWeight = 1.0;

    /**
     * When non-empty, write a crash-safe training checkpoint to this
     * path at epoch boundaries, and resume from it automatically when
     * one exists. A resumed run is bit-identical to an uninterrupted
     * one with the same seed.
     */
    std::string checkpointPath;

    /** Checkpoint after every Nth completed epoch (must be >= 1). */
    std::size_t checkpointEvery = 1;

    /**
     * Optional cooperative stop flag (borrowed; e.g. set from a
     * SIGTERM handler). Checked at epoch boundaries only, so a stop
     * never tears a half-applied optimizer step: training writes a
     * final checkpoint for the completed epochs (when checkpointing)
     * and returns the truncated history. Resuming from that
     * checkpoint is bit-identical to a run that was never stopped.
     */
    const std::atomic<bool> *stopFlag = nullptr;
};

/** Per-epoch mean losses. */
struct EpochStats
{
    /** Reconstruction MSE. */
    double reconLoss = 0.0;

    /** Unweighted KLD. */
    double kldLoss = 0.0;

    /** Latency-predictor MSE. */
    double latencyLoss = 0.0;

    /** Energy-predictor MSE. */
    double energyLoss = 0.0;

    /** Weighted total (Eq. 2). */
    double totalLoss = 0.0;

    /** Exact equality (for resume tests). */
    bool operator==(const EpochStats &other) const = default;
};

/** Joint VAE + predictor trainer. */
class Trainer
{
  public:
    /**
     * @param vae model to train (borrowed).
     * @param latency latency head (borrowed; designDim == latentDim).
     * @param energy energy head (borrowed).
     * @param options hyperparameters.
     */
    Trainer(Vae &vae, Predictor &latency, Predictor &energy,
            const TrainOptions &options);

    /**
     * Train to convergence of the fixed epoch budget.
     * @param data training set.
     * @param rng minibatch shuffling + reparameterization noise.
     * @return per-epoch loss statistics.
     */
    std::vector<EpochStats> train(const Dataset &data, Rng &rng);

    /**
     * Matrix-level variant: train on already-normalized batches.
     * Used by VaesaFramework::fineTune, which must normalize new
     * data with the *original* normalizers rather than the new
     * dataset's.
     */
    std::vector<EpochStats> train(const Matrix &hw_features,
                                  const Matrix &layer_features,
                                  const Matrix &latency_labels,
                                  const Matrix &energy_labels,
                                  Rng &rng);

    /**
     * One pass over already-shuffled matrices; updates parameters
     * when update is true (false is an evaluation pass: no sampling,
     * no updates). Public so tests can assert that the
     * steady-state step loop is allocation-free: every per-batch
     * temporary lives in a member buffer reused across batches and
     * epochs.
     */
    EpochStats runEpoch(const Matrix &hw, const Matrix &layer,
                        const Matrix &lat, const Matrix &en,
                        Rng &rng, bool update);

  private:
    Vae &vae_;
    Predictor &latency_;
    Predictor &energy_;
    TrainOptions options_;
    std::unique_ptr<nn::Adam> optimizer_;

    // Step-loop scratch, reused across batches (allocation-free at a
    // steady batch size).
    std::vector<std::size_t> orderBuf_;
    Matrix xBuf_;
    Matrix featsBuf_;
    Matrix yLatBuf_;
    Matrix yEnBuf_;
    Vae::ForwardResult fr_;
    nn::LossResult reconLoss_;
    nn::LossResult latLoss_;
    nn::LossResult enLoss_;
    nn::KldResult kldLoss_;
    Matrix gradZBuf_;
};

/** Supervised trainer for a standalone predictor (gd baseline). */
class PredictorTrainer
{
  public:
    /**
     * @param predictor head over (normalized hw features, layer
     *        features); designDim must equal numHwParams.
     */
    PredictorTrainer(Predictor &predictor, const TrainOptions &options);

    /**
     * Train against one label matrix (latency or energy).
     * @param design (n x designDim) normalized design features.
     * @param layer_feats (n x layerDim) normalized layer features.
     * @param labels (n x 1) normalized labels.
     * @return per-epoch MSE.
     */
    std::vector<double> train(const Matrix &design,
                              const Matrix &layer_feats,
                              const Matrix &labels, Rng &rng);

  private:
    Predictor &predictor_;
    TrainOptions options_;
    std::unique_ptr<nn::Adam> optimizer_;

    // Step-loop scratch, reused across batches.
    std::vector<std::size_t> orderBuf_;
    Matrix xBuf_;
    Matrix featsBuf_;
    Matrix yBuf_;
    nn::LossResult lossBuf_;
};

} // namespace vaesa

#endif // VAESA_VAESA_TRAINER_HH
