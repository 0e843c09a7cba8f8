/**
 * @file
 * Ablation: the paper's dataset-growth flow (Section III-B3). Plain
 * vae_bo is limited by the decoder manifold learned from the initial
 * dataset -- on ResNet-50 at reduced scale it plateaus above the bo
 * baseline (see EXPERIMENTS.md, Table V). Adaptive vae_bo fine-tunes
 * the VAE + predictors on the designs evaluated during the search,
 * refreshing the manifold around the visited region. This bench
 * compares plain vs adaptive vae_bo on ResNet-50 across seeds.
 */

#include "studies/common.hh"

#include <algorithm>
#include <cmath>

#include "util/stats.hh"
#include "studies/adaptive.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    Scale scale = readScale();
    // Each seed trains two frameworks and runs two full searches;
    // cap the default seed count to keep the sweep affordable.
    scale.seeds = static_cast<std::size_t>(
        envInt("VAESA_ADAPTIVE_SEEDS",
               static_cast<std::int64_t>(std::min<std::size_t>(
                   scale.seeds, 2))));
    banner("Ablation: adaptive (fine-tuning) vae_bo",
           "plain vs adaptive vae_bo on ResNet-50, " +
               std::to_string(scale.seeds) + " seeds x " +
               std::to_string(scale.searchSamples) + " samples");

    Evaluator evaluator;
    const Dataset data =
        buildDataset(evaluator, scale.datasetSize, 42);
    const Workload resnet = workloadByName("resnet50");

    CsvWriter csv(csvPath("abl_adaptive_bo.csv"));
    csv.header({"seed", "variant", "best_edp", "fine_tunes"});

    std::vector<double> plain_best;
    std::vector<double> adaptive_best;
    for (std::size_t seed = 0; seed < scale.seeds; ++seed) {
        // Fresh framework per variant: the adaptive flow mutates it.
        VaesaFramework plain_fw =
            trainFramework(data, 4, scale.epochs, 1e-4, 7 + seed);
        const double radius = 1.5 * plain_fw.latentRadius(data);

        BoOptions bo_options;
        bo_options.uniformCandidates = 1024;
        bo_options.localCandidates = 256;

        LatentObjective plain_obj(plain_fw, evaluator,
                                  resnet.layers, radius);
        Rng rng_plain(900 + seed);
        const double plain = BayesOpt(bo_options)
                                 .run(plain_obj,
                                      scale.searchSamples,
                                      rng_plain)
                                 .best();
        plain_best.push_back(plain);
        csv.row({std::to_string(seed), "plain",
                 CsvWriter::cell(plain), "0"});

        VaesaFramework adaptive_fw =
            trainFramework(data, 4, scale.epochs, 1e-4, 7 + seed);
        AdaptiveBoOptions adaptive_options;
        adaptive_options.bo = bo_options;
        adaptive_options.radius = radius;
        adaptive_options.retrainInterval =
            std::max<std::size_t>(25, scale.searchSamples / 4);
        AdaptiveVaeBo flow(adaptive_fw, evaluator,
                           adaptive_options);
        Rng rng_adaptive(900 + seed);
        const double adaptive =
            flow.run(resnet, scale.searchSamples,
                     rng_adaptive)
                .best();
        adaptive_best.push_back(adaptive);
        csv.row({std::to_string(seed), "adaptive",
                 CsvWriter::cell(adaptive),
                 std::to_string(flow.fineTuneCount())});

        std::printf("seed %zu: plain %.4g, adaptive %.4g (%zu "
                    "fine-tunes)\n",
                    seed, plain, adaptive, flow.fineTuneCount());
    }

    rule();
    const double plain_mean = mean(plain_best);
    const double adaptive_mean = mean(adaptive_best);
    std::printf("mean best EDP: plain %.4g, adaptive %.4g "
                "(%+.1f%%)\n",
                plain_mean, adaptive_mean,
                100.0 * (plain_mean / adaptive_mean - 1.0));
    std::printf("expected: adaptive matches or improves the plain "
                "flow by refreshing the decoder manifold\n");
    return 0;
}
