/**
 * @file
 * The input-space search drivers -- random and BO -- beside
 * latent-space vae_bo on the same workload and budget.
 */

#include "studies/common.hh"

#include "dse/bo.hh"
#include "dse/random_search.hh"
#include "util/stats.hh"
#include "vaesa/latent_dse.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    const Scale scale = readScale();
    banner("Search-method comparison",
           "random / bo / vae_bo on ResNet-50, " +
               std::to_string(scale.seeds) + " seeds x " +
               std::to_string(scale.searchSamples) + " samples");

    Evaluator evaluator;
    const Dataset data =
        buildDataset(evaluator, scale.datasetSize, 42);
    VaesaFramework framework =
        trainFramework(data, 4, scale.epochs, 1e-4, 7);
    const double radius = 1.5 * framework.latentRadius(data);
    const Workload resnet = workloadByName("resnet50");

    CsvWriter csv(csvPath("abl_search_methods.csv"));
    csv.header({"method", "seed", "best_edp"});

    const char *methods[] = {"random", "bo", "vae_bo"};
    std::printf("%-8s %16s %16s %10s\n", "method", "mean best EDP",
                "std", "vs random");
    double random_mean = 0.0;
    for (const char *method : methods) {
        std::vector<double> bests;
        for (std::size_t seed = 0; seed < scale.seeds; ++seed) {
            InputSpaceObjective input_obj(evaluator, resnet.layers);
            LatentObjective latent_obj(framework, evaluator,
                                       resnet.layers, radius);
            Rng rng(3000 + seed);
            SearchTrace trace;
            const std::string m = method;
            if (m == "random") {
                trace = RandomSearch().run(
                    input_obj, scale.searchSamples, rng);
            } else if (m == "bo") {
                trace = BayesOpt().run(input_obj,
                                       scale.searchSamples, rng);
            } else {
                BoOptions bo_options;
                bo_options.uniformCandidates = 1024;
                bo_options.localCandidates = 256;
                trace = BayesOpt(bo_options)
                            .run(latent_obj, scale.searchSamples,
                                 rng);
            }
            bests.push_back(trace.best());
            csv.row({method, std::to_string(seed),
                     CsvWriter::cell(trace.best())});
        }
        const double mu = mean(bests);
        if (std::string(method) == "random")
            random_mean = mu;
        // stddev() is NaN for a single seed; print "n/a", not a
        // fabricated 0.0 band.
        std::printf("%-8s %16.4g %16s %9.2fx\n", method, mu,
                    sigmaText(stddev(bests)).c_str(),
                    random_mean / mu);
    }
    return 0;
}
