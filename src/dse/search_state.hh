/**
 * @file
 * Crash-safe search-state snapshots for the DSE drivers. A snapshot
 * captures everything a driver needs to continue a killed run with
 * the exact trace an uninterrupted run would have produced: the
 * chronological trace so far, the RNG state at the snapshot boundary,
 * and a driver-specific payload (the BO surrogate's hyperparameters,
 * ...).
 *
 * Files use the shared record framing, rotate (`path` + `path.prev`),
 * and load with automatic fallback. A snapshot from a different
 * driver or dimensionality is reported as ShapeMismatch, never
 * silently resumed.
 */

#ifndef VAESA_DSE_SEARCH_STATE_HH
#define VAESA_DSE_SEARCH_STATE_HH

#include <cstdint>
#include <string>

#include "dse/objective.hh"
#include "util/load_error.hh"
#include "util/rng.hh"

namespace vaesa {

/** Where and how often a driver snapshots its state. */
struct SearchCheckpointConfig
{
    /** Snapshot file (empty disables checkpointing). */
    std::string path;

    /**
     * Snapshot every N progress units -- samples for random search,
     * iterations for BO. Must be >= 1.
     */
    std::size_t every = 1;
};

/**
 * Identifies which driver wrote a snapshot. Tag 2 belonged to a
 * retired genetic search and stays reserved: a snapshot carrying it
 * fails to load as Malformed.
 */
enum class SearchDriver : std::uint32_t {
    Random = 1,
    BayesOpt = 3,
};

/** One resumable snapshot of a search run. */
struct SearchSnapshot
{
    /** Driver that wrote the snapshot. */
    SearchDriver driver = SearchDriver::Random;

    /** All evaluations so far, in sample order. */
    SearchTrace trace;

    /** RNG state at the snapshot boundary. */
    RngState rng;

    /** Driver-specific serialized state (may be empty). */
    std::string payload;
};

/**
 * Write a snapshot (with rotation).
 * @return nullopt on success, the write error otherwise.
 */
std::optional<LoadError>
saveSearchSnapshot(const std::string &path,
                   const SearchSnapshot &snapshot);

/**
 * Load a snapshot with fallback to `path.prev`. The driver argument
 * guards against resuming a snapshot written by a different driver.
 * @return the snapshot, or the primary file's error.
 */
Expected<SearchSnapshot>
loadSearchSnapshot(const std::string &path, SearchDriver driver);

/**
 * Shared resume preamble for the drivers: the snapshot config names,
 * when the file exists, loads and is of the right driver. Nothing is
 * restored here, so a driver can check its payload before it takes
 * the trace and the rng state. Warns when the file exists but is
 * unusable for any reason other than not existing; panics on
 * config.every == 0.
 * @return the snapshot, or std::nullopt for a fresh start.
 */
std::optional<SearchSnapshot>
resumeSearch(const SearchCheckpointConfig &config, SearchDriver driver);

} // namespace vaesa

#endif // VAESA_DSE_SEARCH_STATE_HH
