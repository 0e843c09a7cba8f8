/**
 * @file
 * Reproduces Figure 11: best-EDP-so-far convergence curves of
 * random search, input-space BO (bo), and latent-space BO (vae_bo)
 * on the four DNN workloads, mean +/- std over seeds. The paper's
 * claim: vae_bo converges fastest and reaches the best design on
 * every workload.
 */

#include "studies/bo_study.hh"

#include <cmath>

#include "dse/objective.hh"
#include "util/stats.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    const Scale scale = readScale();
    banner("Figure 11",
           "EDP convergence: random vs bo vs vae_bo, " +
               std::to_string(scale.seeds) + " seeds, " +
               std::to_string(scale.searchSamples) + " samples");

    std::vector<BoRun> runs =
        runBoStudy(scale.searchSamples, scale.seeds);
    saveBoRuns(runs);

    // Checkpoints at roughly logarithmic spacing.
    std::vector<std::size_t> checkpoints;
    for (std::size_t c : {10, 20, 40, 80, 120, 160, 200, 400, 800,
                          1200, 1600, 2000}) {
        if (c <= scale.searchSamples)
            checkpoints.push_back(c);
    }
    if (checkpoints.empty() ||
        checkpoints.back() != scale.searchSamples) {
        checkpoints.push_back(scale.searchSamples);
    }

    CsvWriter csv(csvPath("fig11_curves.csv"));
    csv.header({"workload", "method", "samples", "mean_best_edp",
                "std_best_edp"});

    for (const Workload &w : trainingWorkloads()) {
        std::printf("\n== %s ==\n", w.name.c_str());
        std::printf("%8s", "samples");
        for (const std::string &m : boMethods)
            std::printf(" %14s +/- std  ", m.c_str());
        std::printf("\n");

        for (std::size_t c : checkpoints) {
            std::printf("%8zu", c);
            for (const std::string &m : boMethods) {
                std::vector<double> bests;
                for (const BoRun &run : runs) {
                    if (run.workload != w.name || run.method != m)
                        continue;
                    double best = invalidScore;
                    for (std::size_t i = 0;
                         i < std::min(c, run.edps.size()); ++i)
                        best = std::min(best, run.edps[i]);
                    bests.push_back(best);
                }
                const double mu = mean(bests);
                // NaN for a single seed: the band is undefined, so
                // both the table and the CSV say "n/a".
                const double sd = stddev(bests);
                std::printf(" %14.4g (%7s) ", mu,
                            sigmaText(sd).c_str());
                csv.row({w.name, m, std::to_string(c),
                         CsvWriter::cell(mu), sigmaText(sd)});
            }
            std::printf("\n");
        }

        // Which method holds the best final design?
        double best_edp = invalidScore;
        std::string best_method;
        for (const std::string &m : boMethods) {
            for (const BoRun &run : runs) {
                if (run.workload != w.name || run.method != m)
                    continue;
                for (double e : run.edps) {
                    if (e < best_edp) {
                        best_edp = e;
                        best_method = m;
                    }
                }
            }
        }
        std::printf("best design found by: %s (EDP %.4g)\n",
                    best_method.c_str(), best_edp);
    }

    rule();
    std::printf("paper claim: vae_bo converges fastest and finds "
                "the optimal design on all four DNNs\n");
    std::printf("curves CSV: bench_out/fig11_curves.csv; raw runs "
                "cached for tab05 in bench_out/fig11_runs.csv\n");
    return 0;
}
