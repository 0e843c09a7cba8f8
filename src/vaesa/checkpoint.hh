/**
 * @file
 * Crash-safe training checkpoints: everything the Trainer needs to
 * continue a killed run bit-identically to an uninterrupted one --
 * model parameters, optimizer moments, the shuffling/sampling RNG
 * state, and the per-epoch loss history so far.
 *
 * Files are written with last-good rotation (`path` + `path.prev`)
 * and loaded with automatic fallback, so a crash mid-save can never
 * cost more than one checkpoint interval of work.
 */

#ifndef VAESA_VAESA_CHECKPOINT_HH
#define VAESA_VAESA_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "nn/optim.hh"
#include "util/load_error.hh"
#include "util/rng.hh"
#include "vaesa/trainer.hh"

namespace vaesa {

/** Non-tensor part of a training checkpoint. */
struct TrainCheckpoint
{
    /** Epochs fully completed before the snapshot. */
    std::uint64_t epochsDone = 0;

    /** Loss history of the completed epochs. */
    std::vector<EpochStats> history;

    /** RNG state at the epoch boundary. */
    RngState rng;
};

/**
 * Write a training checkpoint (with rotation). The parameters and
 * optimizer state are read from the given optimizer.
 * @return nullopt on success, the write error otherwise.
 */
std::optional<LoadError>
saveTrainCheckpoint(const std::string &path,
                    const TrainCheckpoint &checkpoint,
                    const nn::Adam &optimizer);

/**
 * Load a checkpoint written by saveTrainCheckpoint(), with fallback
 * to `path.prev`. On success the optimizer's parameters and internal
 * state are overwritten in place.
 * @return the non-tensor state, or the primary file's error.
 */
Expected<TrainCheckpoint>
loadTrainCheckpoint(const std::string &path, nn::Adam &optimizer);

} // namespace vaesa

#endif // VAESA_VAESA_CHECKPOINT_HH
