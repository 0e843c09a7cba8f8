/**
 * @file
 * Shared helpers for the reproduction harness binaries: default
 * experiment sizes (scaled by VAESA_* env vars), dataset/framework
 * construction, and table formatting.
 *
 * Every bench binary prints the rows/series of one paper table or
 * figure to stdout and drops a machine-readable CSV into
 * ./bench_out/ for replotting.
 */

#ifndef VAESA_BENCH_STUDIES_COMMON_HH
#define VAESA_BENCH_STUDIES_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sched/evaluator.hh"
#include "studies/csv.hh"
#include "util/env.hh"
#include "vaesa/framework.hh"
#include "workload/networks.hh"

namespace vaesa::bench {

/** Experiment sizes after applying the VAESA_* env knobs. */
struct Scale
{
    /** Training-set size (paper: 500 K). */
    std::size_t datasetSize;

    /** Training epochs. */
    std::size_t epochs;

    /** Search budget for the BO study (paper: 2000). */
    std::size_t searchSamples;

    /** Random seeds per experiment (paper: 3 for BO, 5 for GD). */
    std::size_t seeds;

    /** GD random starts for Figure 13 (paper: 200). */
    std::size_t gdStarts;
};

/** Read the scale knobs (VAESA_DATASET/EPOCHS/SAMPLES/SEEDS/STARTS). */
Scale readScale();

/** All unique layers of the four training workloads. */
std::vector<LayerShape> fullLayerPool();

/** Build the standard training dataset at the given scale. */
Dataset buildDataset(const Evaluator &evaluator, std::size_t size,
                     std::uint64_t seed);

/** Train a framework with the paper's defaults at a latent dim. */
VaesaFramework trainFramework(const Dataset &data,
                              std::size_t latent_dim,
                              std::size_t epochs, double alpha,
                              std::uint64_t seed);

/** Create ./bench_out/ (if needed) and return the CSV path. */
std::string csvPath(const std::string &name);

/**
 * Format a spread statistic (stddev/variance) for tables and CSVs:
 * "n/a" when the value is NaN (undefined for n < 2 — see
 * util/stats.hh), otherwise "%.3g".
 */
std::string sigmaText(double sigma);

/** Print a rule line. */
void rule();

/** Print the harness banner for one experiment. */
void banner(const std::string &experiment, const std::string &what);

} // namespace vaesa::bench

#endif // VAESA_BENCH_STUDIES_COMMON_HH
