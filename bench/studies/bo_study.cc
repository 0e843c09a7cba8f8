#include "studies/bo_study.hh"

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "dse/bo.hh"
#include "dse/random_search.hh"
#include "vaesa/latent_dse.hh"

namespace vaesa::bench {

namespace {

constexpr const char *cacheFile = "bench_out/fig11_runs.csv";

} // namespace

std::vector<BoRun>
runBoStudy(std::size_t samples, std::size_t seeds)
{
    const Scale scale = readScale();
    Evaluator evaluator;
    const Dataset data =
        buildDataset(evaluator, scale.datasetSize, 42);
    VaesaFramework framework =
        trainFramework(data, 4, scale.epochs, 1e-4, 7);
    // A wider box than the data cloud lets BO exploit the decoder's
    // extrapolation, which reaches configurations beyond the
    // training distribution (Section III-B5's observation).
    const double radius = 1.5 * framework.latentRadius(data);
    std::printf("[study] framework trained (recon MSE %.5f, latent "
                "radius %.2f)\n",
                framework.history().back().reconLoss, radius);

    std::vector<BoRun> runs;
    for (const Workload &w : trainingWorkloads()) {
        for (std::size_t seed = 0; seed < seeds; ++seed) {
            InputSpaceObjective input_obj(evaluator, w.layers);
            LatentObjective latent_obj(framework, evaluator,
                                       w.layers, radius);

            // The latent box is only 4-D; afford the acquisition a
            // denser candidate set there.
            BoOptions latent_bo;
            latent_bo.uniformCandidates = 1024;
            latent_bo.localCandidates = 256;

            for (const std::string &method : boMethods) {
                Rng rng(1000 * (seed + 1) + 17);
                SearchTrace trace;
                if (method == "random") {
                    trace = RandomSearch().run(input_obj, samples,
                                               rng);
                } else if (method == "bo") {
                    trace = BayesOpt().run(input_obj, samples, rng);
                } else {
                    trace = BayesOpt(latent_bo)
                                .run(latent_obj, samples, rng);
                }
                BoRun run;
                run.workload = w.name;
                run.method = method;
                run.seed = seed;
                for (const TracePoint &p : trace.points)
                    run.edps.push_back(p.value);
                runs.push_back(std::move(run));
            }
            std::printf("[study] %s seed %zu done\n",
                        w.name.c_str(), seed);
        }
    }
    return runs;
}

void
saveBoRuns(const std::vector<BoRun> &runs)
{
    CsvWriter csv(csvPath("fig11_runs.csv"));
    csv.header({"workload", "method", "seed", "sample", "edp"});
    for (const BoRun &run : runs) {
        for (std::size_t i = 0; i < run.edps.size(); ++i) {
            csv.row({run.workload, run.method,
                     std::to_string(run.seed), std::to_string(i),
                     std::isfinite(run.edps[i])
                         ? CsvWriter::cell(run.edps[i])
                         : "inf"});
        }
    }
}

std::vector<BoRun>
loadBoRuns(std::size_t samples, std::size_t seeds)
{
    std::ifstream in(cacheFile);
    if (!in)
        return {};

    std::map<std::string, BoRun> by_key;
    std::string line;
    std::getline(in, line); // header
    while (std::getline(in, line)) {
        std::istringstream iss(line);
        std::string workload, method, seed_str, sample_str, edp_str;
        if (!std::getline(iss, workload, ',') ||
            !std::getline(iss, method, ',') ||
            !std::getline(iss, seed_str, ',') ||
            !std::getline(iss, sample_str, ',') ||
            !std::getline(iss, edp_str, ',')) {
            return {};
        }
        const std::string key = workload + "/" + method + "/" +
                                seed_str;
        BoRun &run = by_key[key];
        run.workload = workload;
        run.method = method;
        run.seed = std::stoul(seed_str);
        run.edps.push_back(edp_str == "inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::stod(edp_str));
    }

    std::vector<BoRun> runs;
    for (auto &[key, run] : by_key) {
        if (run.edps.size() < samples || run.seed >= seeds)
            continue;
        runs.push_back(std::move(run));
    }
    // Expect workloads x methods x seeds complete runs.
    const std::size_t expected =
        trainingWorkloads().size() * boMethods.size() * seeds;
    if (runs.size() != expected)
        return {};
    return runs;
}

} // namespace vaesa::bench
