/**
 * @file
 * Reproduces Figure 10: the reconstruction-loss term during training
 * for different latent-space dimensionalities. The paper observes
 * that reconstruction accuracy improves with dimensionality but
 * shows diminishing returns beyond 4 dimensions -- the basis for
 * choosing a 4-D latent space.
 */

#include "studies/common.hh"
#include "studies/latent.hh"

int
main()
{
    using namespace vaesa;
    const bench::Scale scale = bench::readScale();
    bench::banner("Figure 10",
                  "Reconstruction loss during training vs latent "
                  "dimensionality");

    Evaluator evaluator;
    const Dataset data =
        bench::buildDataset(evaluator, scale.datasetSize, 42);

    const std::size_t dims[] = {1, 2, 3, 4, 6};
    CsvWriter csv(bench::csvPath("fig10_latent_dim.csv"));
    csv.header({"latent_dim", "epoch", "recon_loss"});

    std::vector<double> final_loss;
    std::vector<std::vector<double>> curves;
    for (std::size_t dim : dims) {
        VaesaFramework framework = bench::trainFramework(
            data, dim, scale.epochs, 1e-4, 7);
        std::vector<double> curve;
        std::size_t epoch = 0;
        for (const EpochStats &stats : framework.history()) {
            curve.push_back(stats.reconLoss);
            csv.rowValues({static_cast<double>(dim),
                           static_cast<double>(epoch++),
                           stats.reconLoss});
        }
        curves.push_back(curve);
        final_loss.push_back(reconstructionError(framework, data));
    }

    std::printf("%-12s", "epoch");
    for (std::size_t dim : dims)
        std::printf("   dim=%zu    ", dim);
    std::printf("\n");
    const std::size_t epochs = curves[0].size();
    for (std::size_t e = 0; e < epochs;
         e += std::max<std::size_t>(1, epochs / 10)) {
        std::printf("%-12zu", e);
        for (const auto &curve : curves)
            std::printf(" %9.5f  ", curve[e]);
        std::printf("\n");
    }

    bench::rule();
    std::printf("final reconstruction MSE per dimensionality:\n");
    for (std::size_t i = 0; i < std::size(dims); ++i)
        std::printf("  dim=%zu: %.5f\n", dims[i], final_loss[i]);

    // Diminishing returns: the 1->4 improvement dwarfs 4->6.
    const double gain_small = final_loss[0] - final_loss[3];
    const double gain_large = final_loss[3] - final_loss[4];
    std::printf("\npaper claim: diminishing returns beyond a 4-D "
                "latent space\n");
    std::printf("measured:    1D->4D improves MSE by %.5f; 4D->6D "
                "by %.5f (%s)\n",
                gain_small, gain_large,
                gain_small > 3.0 * std::max(gain_large, 0.0)
                    ? "reproduced"
                    : "check curves");
    return 0;
}
