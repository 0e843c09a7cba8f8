/**
 * @file
 * Library showcase (beyond the paper): all five input-space search
 * drivers -- random, BO, genetic, simulated annealing -- plus
 * latent-space vae_bo on the same workload and budget, with the
 * memoizing evaluator's hit-rate demonstrating how much evaluation
 * work discrete search spaces repeat.
 */

#include "common.hh"

#include <cmath>

#include "dse/bo.hh"
#include "dse/genetic.hh"
#include "dse/random_search.hh"
#include "sched/caching_evaluator.hh"
#include "util/stats.hh"
#include "vaesa/latent_dse.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    const Scale scale = readScale();
    banner("Search-method comparison",
           "random / bo / ga / sa / vae_bo on ResNet-50, " +
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

    const char *methods[] = {"random", "bo", "ga", "sa", "vae_bo"};
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
            } else if (m == "ga") {
                trace = GeneticSearch().run(
                    input_obj, scale.searchSamples, rng);
            } else if (m == "sa") {
                trace = SimulatedAnnealing().run(
                    input_obj, scale.searchSamples, rng);
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

    // Demonstrate the memoizing evaluator on a GA run (elitist
    // populations revisit configurations heavily).
    CachingEvaluator cached;
    InputSpaceObjective cached_obj_probe(evaluator, resnet.layers);
    class CachedObjective : public Objective
    {
      public:
        CachedObjective(CachingEvaluator &ce,
                        const Workload &workload,
                        InputSpaceObjective &codec)
            : ce_(ce), workload_(workload), codec_(codec)
        {
        }
        std::size_t dim() const override { return codec_.dim(); }
        std::vector<double> lowerBounds() const override
        {
            return codec_.lowerBounds();
        }
        std::vector<double> upperBounds() const override
        {
            return codec_.upperBounds();
        }
        double
        evaluate(const std::vector<double> &x) override
        {
            const EvalResult r =
                ce_.evaluateWorkload(codec_.decode(x), workload_);
            return r.valid ? r.edp : invalidScore;
        }

      private:
        CachingEvaluator &ce_;
        const Workload &workload_;
        InputSpaceObjective &codec_;
    } cached_obj(cached, resnet, cached_obj_probe);

    Rng rng(4000);
    GeneticSearch().run(cached_obj, scale.searchSamples, rng);
    const double hit_rate =
        static_cast<double>(cached.hits()) /
        static_cast<double>(cached.hits() + cached.misses());

    rule();
    std::printf("memoizing evaluator on the GA run: %.0f%% of "
                "per-layer evaluations were cache hits\n",
                100.0 * hit_rate);
    return 0;
}
