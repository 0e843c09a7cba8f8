#include "studies/common.hh"

#include <cmath>
#include <filesystem>

namespace vaesa::bench {

Scale
readScale()
{
    Scale s;
    s.datasetSize =
        static_cast<std::size_t>(envInt("VAESA_DATASET", 8000));
    s.epochs = static_cast<std::size_t>(envInt("VAESA_EPOCHS", 50));
    s.searchSamples =
        static_cast<std::size_t>(envInt("VAESA_SAMPLES", 200));
    s.seeds = static_cast<std::size_t>(envInt("VAESA_SEEDS", 3));
    s.gdStarts = static_cast<std::size_t>(envInt("VAESA_STARTS", 60));
    return s;
}

std::vector<LayerShape>
fullLayerPool()
{
    std::vector<LayerShape> pool;
    for (const Workload &w : trainingWorkloads())
        pool.insert(pool.end(), w.layers.begin(), w.layers.end());
    return pool;
}

Dataset
buildDataset(const Evaluator &evaluator, std::size_t size,
             std::uint64_t seed)
{
    Rng rng(seed);
    return DatasetBuilder(evaluator, fullLayerPool())
        .build(size, rng);
}

VaesaFramework
trainFramework(const Dataset &data, std::size_t latent_dim,
               std::size_t epochs, double alpha, std::uint64_t seed)
{
    FrameworkOptions options;
    options.vae.latentDim = latent_dim;
    options.vae.hiddenDims = {128, 64};
    options.predictorHidden = {64, 64};
    options.train.epochs = epochs;
    options.train.kldWeight = alpha;
    return VaesaFramework(data, options, seed);
}

std::string
csvPath(const std::string &name)
{
    std::filesystem::create_directories("bench_out");
    return "bench_out/" + name;
}

std::string
sigmaText(double sigma)
{
    if (std::isnan(sigma))
        return "n/a";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3g", sigma);
    return buf;
}

void
rule()
{
    std::printf("-------------------------------------------------"
                "-----------------------------\n");
}

void
banner(const std::string &experiment, const std::string &what)
{
    rule();
    std::printf("VAESA reproduction | %s\n", experiment.c_str());
    std::printf("%s\n", what.c_str());
    rule();
}

} // namespace vaesa::bench
