/**
 * @file
 * Ablation (beyond the paper): the two design choices in this
 * repository's vae_gd flow.
 *
 *   1. Gaussian-prior (MAP) weight on the latent surrogate. The
 *      LeakyReLU predictors are piecewise linear, so the raw
 *      surrogate is minimized on the search-box boundary where the
 *      decoder extrapolates; a small prior keeps descent inside the
 *      learned region.
 *   2. Predictor screening (simulate only the best-predicted of m
 *      endpoints). Intuitively attractive, but it selects exactly
 *      the points where the predictor is most over-optimistic and
 *      *hurts* real EDP -- kept disabled by default.
 *
 * Reports geomean best real EDP at a 10-sample budget over six of
 * the Table IV layers, relative to random search.
 */

#include "studies/common.hh"

#include <cmath>

#include "dse/random_search.hh"
#include "util/stats.hh"
#include "vaesa/latent_dse.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    const Scale scale = readScale();
    banner("Ablation: vae_gd prior weight & screening",
           "geomean best EDP at 10 samples vs random "
           "(>1 means vae_gd wins)");

    Evaluator evaluator;
    const Dataset data =
        buildDataset(evaluator, scale.datasetSize, 42);
    VaesaFramework framework =
        trainFramework(data, 4, scale.epochs, 1e-4, 7);
    const double radius = 1.5 * framework.latentRadius(data);

    const int layer_ids[] = {1, 3, 5, 7, 9, 11};
    const std::size_t budget = 10;

    // Random-search reference.
    double log_random = 0.0;
    for (int li : layer_ids) {
        InputSpaceObjective obj(evaluator, {gdTestLayers()[li]});
        Rng rng(5);
        log_random +=
            std::log(RandomSearch().run(obj, budget, rng).best());
    }
    log_random /= std::size(layer_ids);

    CsvWriter csv(csvPath("abl_gd_prior.csv"));
    csv.header({"prior_weight", "screen_starts", "geomean_edp",
                "ratio_vs_random"});

    auto run_config = [&](double prior, std::size_t screen) {
        double log_gd = 0.0;
        for (int li : layer_ids) {
            VaeGdOptions options;
            options.radius = radius;
            options.priorWeight = prior;
            options.screenStarts = screen;
            Rng rng(5);
            const SearchTrace trace =
                vaeGdSearch(framework, evaluator,
                            gdTestLayers()[li], budget, options,
                            rng);
            log_gd += std::log(trace.best());
        }
        log_gd /= std::size(layer_ids);
        const double geo = std::exp(log_gd);
        const double ratio = std::exp(log_random - log_gd);
        csv.rowValues({prior, static_cast<double>(screen), geo,
                       ratio});
        return ratio;
    };

    std::printf("%-14s %-14s %16s\n", "prior weight",
                "screen starts", "ratio vs random");
    for (double prior : {0.0, 0.05, 0.1, 0.3, 1.0}) {
        const double ratio = run_config(prior, 1);
        std::printf("%-14g %-14d %15.2fx\n", prior, 1, ratio);
    }
    rule();
    for (std::size_t screen : {std::size_t{2}, std::size_t{4}}) {
        const double ratio = run_config(0.1, screen);
        std::printf("%-14g %-14zu %15.2fx\n", 0.1, screen, ratio);
    }

    rule();
    std::printf("expected: ratios peak for prior in [0.05, 0.3]; "
                "screening drives the ratio far below 1\n");
    return 0;
}
