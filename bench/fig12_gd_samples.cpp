/**
 * @file
 * Reproduces Figure 12: mean EDP of vae_gd vs the input-space gd
 * baseline vs random search over the 12 unseen test layers of Table
 * IV, for small sample budgets (<= 30), several seeds. The paper's
 * claim: vae_gd consistently wins at low budgets (e.g. 16% lower
 * EDP than random at 10 samples).
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
    const std::size_t gd_seeds =
        static_cast<std::size_t>(envInt("VAESA_GD_SEEDS", 5));
    banner("Figure 12",
           "vae_gd vs gd vs random on the 12 unseen layers "
           "(Table IV), " + std::to_string(gd_seeds) + " seeds");

    Evaluator evaluator;
    const Dataset data =
        buildDataset(evaluator, scale.datasetSize, 42);
    VaesaFramework framework =
        trainFramework(data, 4, scale.epochs, 1e-4, 7);
    const double radius =
        1.5 * framework.latentRadius(data);

    TrainOptions baseline_train;
    baseline_train.epochs = scale.epochs;
    InputGdBaseline baseline(data, {64, 64}, baseline_train, 21);

    const std::vector<LayerShape> layers = gdTestLayers();
    const std::size_t budget = 30;
    const std::vector<std::size_t> marks{1, 2, 5, 10, 20, 30};

    // log-EDP best-so-far per (method, layer, seed, sample).
    const std::vector<std::string> methods{"random", "gd", "vae_gd"};
    // curves[method][mark] accumulates log best EDP.
    std::vector<std::vector<std::vector<double>>> logs(
        methods.size(),
        std::vector<std::vector<double>>(marks.size()));

    for (std::size_t li = 0; li < layers.size(); ++li) {
        const LayerShape &layer = layers[li];
        for (std::size_t seed = 0; seed < gd_seeds; ++seed) {
            const std::uint64_t s = 500 * (seed + 1) + li;
            VaeGdOptions gd_options;
            gd_options.steps = 100;
            gd_options.radius = radius;

            Rng rng_vae(s);
            const SearchTrace vae_trace = vaeGdSearch(
                framework, evaluator, layer, budget, gd_options,
                rng_vae);
            Rng rng_gd(s);
            const SearchTrace gd_trace = baseline.search(
                evaluator, layer, budget, gd_options, rng_gd);
            Rng rng_rnd(s);
            InputSpaceObjective input_obj(evaluator, {layer});
            const SearchTrace rnd_trace =
                RandomSearch().run(input_obj, budget, rng_rnd);

            const SearchTrace *traces[] = {&rnd_trace, &gd_trace,
                                           &vae_trace};
            for (std::size_t m = 0; m < methods.size(); ++m) {
                for (std::size_t k = 0; k < marks.size(); ++k) {
                    const double best =
                        traces[m]->bestAfter(marks[k]);
                    if (std::isfinite(best))
                        logs[m][k].push_back(std::log(best));
                }
            }
        }
    }

    CsvWriter csv(csvPath("fig12_gd_samples.csv"));
    csv.header({"samples", "method", "geomean_edp",
                "improvement_vs_random"});

    std::printf("%8s %16s %16s %16s %22s\n", "samples", "random",
                "gd", "vae_gd", "vae_gd vs random");
    double improvement_at_10 = 0.0;
    for (std::size_t k = 0; k < marks.size(); ++k) {
        double geo[3];
        for (std::size_t m = 0; m < methods.size(); ++m) {
            geo[m] = std::exp(mean(logs[m][k]));
            csv.row({std::to_string(marks[k]), methods[m],
                     CsvWriter::cell(geo[m]),
                     CsvWriter::cell(geo[0] / geo[m])});
        }
        const double vs_random = geo[0] / geo[2];
        if (marks[k] == 10)
            improvement_at_10 = vs_random;
        std::printf("%8zu %16.4g %16.4g %16.4g %20.1f%%\n",
                    marks[k], geo[0], geo[1], geo[2],
                    100.0 * (vs_random - 1.0));
    }

    rule();
    std::printf("paper claim: vae_gd beats gd and random for small "
                "budgets; ~16%% lower EDP than random at 10 "
                "samples\n");
    std::printf("measured:    vae_gd EDP advantage vs random at 10 "
                "samples: %.1f%%\n",
                100.0 * (improvement_at_10 - 1.0));
    return 0;
}
