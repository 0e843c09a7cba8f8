/**
 * @file
 * Ablation (beyond the paper): how wide should the latent search box
 * be for vae_bo? The KLD term concentrates encodings near the
 * origin; a box the size of the data cloud cannot reach the
 * decoder's (often useful) extrapolations, while a huge box wastes
 * the budget where decodes are garbage. Sweeps the box radius as a
 * multiple of VaesaFramework::latentRadius and reports (a) the best
 * decoded EDP reachable by dense random probing of the box and (b)
 * what BO actually achieves with the study budget.
 */

#include "studies/common.hh"

#include <cmath>

#include "dse/bo.hh"
#include "util/stats.hh"
#include "vaesa/latent_dse.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    const Scale scale = readScale();
    banner("Ablation: latent search-box radius",
           "vae_bo on ResNet-50 vs box width");

    Evaluator evaluator;
    const Dataset data =
        buildDataset(evaluator, scale.datasetSize, 42);
    VaesaFramework framework =
        trainFramework(data, 4, scale.epochs, 1e-4, 7);
    const double base = framework.latentRadius(data);
    const Workload resnet = workloadByName("resnet50");

    CsvWriter csv(csvPath("abl_latent_radius.csv"));
    csv.header({"radius_factor", "radius", "probe_best_edp",
                "bo_best_edp"});

    std::printf("base radius (99th pct of |mu|, padded): %.2f\n\n",
                base);
    std::printf("%-14s %-10s %18s %18s\n", "radius factor",
                "radius", "probe best (5k z)", "vae_bo best");

    for (double factor : {0.5, 1.0, 1.5, 2.0, 3.0}) {
        const double radius = base * factor;
        LatentObjective objective(framework, evaluator,
                                  resnet.layers, radius);

        // Dense random probe: an upper bound on what the box holds.
        Rng probe_rng(17);
        double probe_best = invalidScore;
        for (int i = 0; i < 5000; ++i) {
            std::vector<double> z(framework.latentDim());
            for (double &v : z)
                v = probe_rng.uniform(-radius, radius);
            probe_best =
                std::min(probe_best, objective.evaluate(z));
        }

        // BO with the study budget.
        BoOptions bo_options;
        bo_options.uniformCandidates = 1024;
        bo_options.localCandidates = 256;
        Rng bo_rng(17);
        const double bo_best =
            BayesOpt(bo_options)
                .run(objective, scale.searchSamples, bo_rng)
                .best();

        std::printf("%-14.1f %-10.2f %18.4g %18.4g\n", factor,
                    radius, probe_best, bo_best);
        csv.rowValues({factor, radius, probe_best, bo_best});
    }

    rule();
    std::printf("expected: probe-best improves then saturates with "
                "width; BO degrades when the box grows far beyond "
                "the data cloud\n");
    return 0;
}
