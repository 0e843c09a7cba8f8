/**
 * @file
 * Reproduces Table V: search performance (SP) and sample efficiency
 * (SE) of random / bo / vae_bo on the four workloads, both relative
 * to random search.
 *
 *   SP = mean best EDP of random / mean best EDP of the method
 *        (higher is better; 1.00 for random by construction).
 *   SE = samples random needs to reach within 3% of the best-known
 *        EDP / samples the method needs (capped at the budget when
 *        a run never reaches the threshold).
 *
 * Reuses the raw runs cached by fig11_bo_curves when available.
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
    banner("Table V",
           "Search performance and sample efficiency of DSE "
           "methods");

    std::vector<BoRun> runs =
        loadBoRuns(scale.searchSamples, scale.seeds);
    if (runs.empty()) {
        std::printf("[study] no cached runs; running the BO study "
                    "(%zu samples x %zu seeds)\n",
                    scale.searchSamples, scale.seeds);
        runs = runBoStudy(scale.searchSamples, scale.seeds);
        saveBoRuns(runs);
    } else {
        std::printf("[study] reusing %zu cached runs from "
                    "fig11_bo_curves\n",
                    runs.size());
    }

    CsvWriter csv(csvPath("tab05_bo_summary.csv"));
    csv.header({"workload", "method", "search_performance",
                "sample_efficiency"});

    std::printf("\n%-12s", "Workload");
    for (const std::string &m : boMethods)
        std::printf(" %9s-SP %9s-SE", m.c_str(), m.c_str());
    std::printf("\n");

    double best_sp = 0.0;
    double best_se = 0.0;
    for (const Workload &w : trainingWorkloads()) {
        // "Best known EDP" target: at paper scale (2000 samples) the
        // absolute minimum over all runs is reachable by every
        // method; at reduced budgets it often is not, which would
        // saturate SE at 1.0. Use the strongest method's *mean final
        // best* as the best-known reference so the 3% threshold
        // stays meaningful at any scale.
        double best_known = invalidScore;
        for (const std::string &m : boMethods) {
            std::vector<double> finals;
            for (const BoRun &run : runs) {
                if (run.workload != w.name || run.method != m)
                    continue;
                double best = invalidScore;
                for (double e : run.edps)
                    best = std::min(best, e);
                finals.push_back(best);
            }
            best_known = std::min(best_known, mean(finals));
        }
        const double threshold = best_known * 1.03;

        auto method_stats = [&](const std::string &m) {
            std::vector<double> bests;
            std::vector<double> reach;
            for (const BoRun &run : runs) {
                if (run.workload != w.name || run.method != m)
                    continue;
                double best = invalidScore;
                std::size_t reached = run.edps.size();
                for (std::size_t i = 0; i < run.edps.size(); ++i) {
                    best = std::min(best, run.edps[i]);
                    if (run.edps[i] <= threshold &&
                        reached == run.edps.size()) {
                        reached = i + 1;
                    }
                }
                bests.push_back(best);
                reach.push_back(static_cast<double>(reached));
            }
            return std::make_pair(mean(bests), mean(reach));
        };

        const auto [random_best, random_reach] =
            method_stats("random");
        std::printf("%-12s", w.name.c_str());
        for (const std::string &m : boMethods) {
            const auto [best, reach] = method_stats(m);
            const double sp = random_best / best;
            const double se = random_reach / reach;
            std::printf(" %12.2f %12.2f", sp, se);
            csv.row({w.name, m, CsvWriter::cell(sp),
                     CsvWriter::cell(se)});
            if (m == "vae_bo") {
                best_sp = std::max(best_sp, sp);
                best_se = std::max(best_se, se);
            }
        }
        std::printf("\n");
    }

    rule();
    std::printf("paper: vae_bo SP up to 1.01 (up to 5%% better than "
                "bo), SE up to 4.46 vs random (6.8x vs bo)\n");
    std::printf("measured: vae_bo best SP %.2f, best SE %.2fx vs "
                "random\n",
                best_sp, best_se);
    return 0;
}
