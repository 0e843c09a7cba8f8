/**
 * @file
 * Reproduces Figure 9: the KLD-weight ablation. Encoders are trained
 * with alpha in {0, 1e-4, 1e-2}. The paper's findings:
 *   - alpha = 0: no variational regularization; encodings spread far
 *     from the origin (discontinuous latent space);
 *   - alpha = 1e-4: continuous but still structured cloud; best
 *     reconstruction of the three;
 *   - alpha = 1e-2: encodings collapse to ~N(0, I), destroying the
 *     structure (reconstruction suffers).
 * The textual analogues reported here: RMS radius of the encoded
 * training data, its correlation with design features, and the
 * reconstruction MSE.
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
    bench::banner("Figure 9",
                  "Encoder ablation over the KLD weight alpha "
                  "(2-D latent space)");

    Evaluator evaluator;
    const Dataset data =
        bench::buildDataset(evaluator, scale.datasetSize, 42);

    CsvWriter csv(bench::csvPath("fig09_alpha_ablation.csv"));
    csv.header({"alpha", "rms_radius", "recon_mse", "kld",
                "max_feature_corr"});

    std::printf("%-10s %12s %12s %12s %16s\n", "alpha",
                "RMS radius", "recon MSE", "KLD",
                "max |corr(z, feat)|");

    struct Row
    {
        double alpha;
        double radius;
        double recon;
    };
    std::vector<Row> rows;

    for (double alpha : {0.0, 1e-4, 1e-2}) {
        VaesaFramework framework = bench::trainFramework(
            data, 2, scale.epochs, alpha, 7);
        const Matrix mu =
            framework.vae().encodeMean(data.hwFeatures());

        double rms = 0.0;
        std::vector<double> z1, z2;
        for (std::size_t i = 0; i < mu.rows(); ++i) {
            rms += mu(i, 0) * mu(i, 0) + mu(i, 1) * mu(i, 1);
            z1.push_back(mu(i, 0));
            z2.push_back(mu(i, 1));
        }
        rms = std::sqrt(rms / static_cast<double>(mu.rows()));

        // Structure: strongest correlation of any latent axis with
        // any normalized hardware feature.
        double best_corr = 0.0;
        for (int p = 0; p < numHwParams; ++p) {
            std::vector<double> feat;
            for (std::size_t i = 0; i < data.size(); ++i)
                feat.push_back(data.hwFeatures()(i, p));
            best_corr = std::max(
                {best_corr, std::fabs(correlation(z1, feat)),
                 std::fabs(correlation(z2, feat))});
        }

        const double recon = reconstructionError(framework, data);
        const double kld = framework.history().back().kldLoss;
        std::printf("%-10g %12.3f %12.5f %12.3f %16.3f\n", alpha,
                    rms, recon, kld, best_corr);
        csv.rowValues({alpha, rms, recon, kld, best_corr});
        rows.push_back({alpha, rms, recon});
    }

    bench::rule();
    std::printf("paper claims vs measured:\n");
    std::printf("  alpha=0 spreads furthest:        %s "
                "(radii %.2f > %.2f > %.2f)\n",
                (rows[0].radius > rows[1].radius &&
                 rows[1].radius > rows[2].radius)
                    ? "reproduced"
                    : "NOT reproduced",
                rows[0].radius, rows[1].radius, rows[2].radius);
    std::printf("  alpha=1e-2 collapses to ~N(0,1): %s "
                "(radius %.2f vs 1.0)\n",
                rows[2].radius < 2.0 ? "reproduced"
                                     : "NOT reproduced",
                rows[2].radius);
    std::printf("  alpha=1e-4 reconstructs best of {1e-4, 1e-2}: "
                "%s (MSE %.5f vs %.5f)\n",
                rows[1].recon <= rows[2].recon ? "reproduced"
                                               : "NOT reproduced",
                rows[1].recon, rows[2].recon);
    return 0;
}
