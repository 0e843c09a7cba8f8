/**
 * @file
 * The shared BO comparison experiment behind Figure 11 and Table V:
 * random search, input-space BO, and latent-space BO (vae_bo) on the
 * four DNN workloads, several seeds each. fig11 prints convergence
 * curves; tab05 summarizes search performance / sample efficiency.
 * The raw per-sample results are cached in bench_out/fig11_runs.csv
 * so tab05 can reuse them instead of re-running the search.
 */

#ifndef VAESA_BENCH_STUDIES_BO_STUDY_HH
#define VAESA_BENCH_STUDIES_BO_STUDY_HH

#include <string>
#include <vector>

#include "studies/common.hh"

namespace vaesa::bench {

/** Method identifiers, in the paper's presentation order. */
inline const std::vector<std::string> boMethods = {"random", "bo",
                                                   "vae_bo"};

/** One search run: the per-sample best-so-far EDP curve. */
struct BoRun
{
    /** Workload name. */
    std::string workload;

    /** Method: random | bo | vae_bo. */
    std::string method;

    /** Seed index. */
    std::size_t seed;

    /** Raw per-sample EDP values (not best-so-far). */
    std::vector<double> edps;
};

/**
 * Run (or reuse) the full study: every workload x method x seed.
 * Trains one 4-D VAESA framework for the vae_bo runs.
 *
 * @param samples per-run evaluation budget.
 * @param seeds runs per (workload, method).
 */
std::vector<BoRun> runBoStudy(std::size_t samples,
                              std::size_t seeds);

/** Persist runs to bench_out/fig11_runs.csv. */
void saveBoRuns(const std::vector<BoRun> &runs);

/**
 * Load cached runs; returns empty when the cache is missing or was
 * produced with a smaller budget/seed count.
 */
std::vector<BoRun> loadBoRuns(std::size_t samples,
                              std::size_t seeds);

} // namespace vaesa::bench

#endif // VAESA_BENCH_STUDIES_BO_STUDY_HH
