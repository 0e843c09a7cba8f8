/**
 * @file
 * Reproduces Figure 5: predicted vs real latency/energy surfaces
 * over a 2-D latent space. The paper inspects the two surfaces
 * visually and finds that inside the data-dense region (radius ~1.5
 * around the origin) the predictor matches the real surface, while
 * far outside it can be off by multiples. This harness samples a
 * latent grid, decodes and evaluates every point, and reports the
 * predicted-vs-real log-domain correlation and median multiplicative
 * error inside and outside the dense region.
 */

#include "studies/common.hh"

#include <cmath>

#include "studies/latent.hh"
#include "util/stats.hh"

int
main()
{
    using namespace vaesa;
    const bench::Scale scale = bench::readScale();
    bench::banner("Figure 5",
                  "Predicted vs real performance surface over the "
                  "2-D latent space (ResNet-50 conv)");

    Evaluator evaluator;
    const Dataset data =
        bench::buildDataset(evaluator, scale.datasetSize, 42);
    VaesaFramework framework =
        bench::trainFramework(data, 2, scale.epochs, 1e-4, 7);

    const LayerShape layer = resNet50Layers()[2]; // 3x3 at 56x56
    const std::vector<double> feats =
        framework.normalizedLayerFeatures(layer);
    const double radius = framework.latentRadius(data);
    const double dense_radius = 0.5 * radius;

    CsvWriter csv(bench::csvPath("fig05_predictor_surface.csv"));
    csv.header({"z1", "z2", "pred_latency", "pred_energy",
                "real_latency", "real_energy"});

    std::vector<double> all_pred_lat, all_real_lat;
    std::vector<double> all_pred_en, all_real_en;
    std::vector<double> in_err, out_err;

    const int grid = 21;
    for (int i = 0; i < grid; ++i) {
        for (int j = 0; j < grid; ++j) {
            const double z1 =
                -radius + 2.0 * radius * i / (grid - 1);
            const double z2 =
                -radius + 2.0 * radius * j / (grid - 1);
            const std::vector<double> z{z1, z2};
            const double pred_lat =
                predictedLatency(framework, z, feats);
            const double pred_en =
                predictedEnergy(framework, z, feats);
            const AcceleratorConfig config =
                framework.decodeLatent(z);
            const EvalResult real =
                evaluator.evaluateLayer(config, layer);
            if (!real.valid)
                continue;
            csv.rowValues({z1, z2, pred_lat, pred_en,
                           real.latencyCycles, real.energyPj});

            const double err = std::fabs(
                std::log2(pred_lat * pred_en) -
                std::log2(real.latencyCycles * real.energyPj));
            all_pred_lat.push_back(std::log2(pred_lat));
            all_real_lat.push_back(std::log2(real.latencyCycles));
            all_pred_en.push_back(std::log2(pred_en));
            all_real_en.push_back(std::log2(real.energyPj));
            if (std::hypot(z1, z2) <= dense_radius)
                in_err.push_back(err);
            else
                out_err.push_back(err);
        }
    }

    std::printf("latent box half-width %.2f; dense region radius "
                "%.2f; %zu dense / %zu outer valid grid points\n\n",
                radius, dense_radius, in_err.size(),
                out_err.size());
    std::printf("predicted-vs-real correlation over the surface "
                "(log domain): latency %.3f, energy %.3f\n",
                correlation(all_pred_lat, all_real_lat),
                correlation(all_pred_en, all_real_en));
    const double in_med = percentile(in_err, 0.5);
    const double out_med =
        out_err.empty() ? 0.0 : percentile(out_err, 0.5);
    std::printf("median |log2(pred EDP / real EDP)|: dense %.2f "
                "octaves (%.2fx), outside %.2f octaves (%.2fx)\n",
                in_med, std::exp2(in_med), out_med,
                std::exp2(out_med));

    bench::rule();
    std::printf("paper claim: predictors match the real surface in "
                "the data-dense region;\n"
                "             errors grow (up to ~5x) outside it\n");
    std::printf("measured:    dense-region error %.2fx %s outer "
                "error %.2fx\n",
                std::exp2(in_med),
                in_med <= out_med ? "<=" : ">", std::exp2(out_med));
    return 0;
}
