/**
 * @file
 * Reproduces Figure 4: visualization of the training data encoded
 * into a 2-D latent space. The paper shows points clearly grouped by
 * feature values (number of MACs, global-buffer size) and by EDP.
 * As the textual analogue of the scatter plots, this harness reports
 * (a) the linear correlation of each latent axis with those
 * quantities and (b) a binned R^2 -- the fraction of each quantity's
 * variance explained by *position* in the latent plane (computed
 * over a 10x10 grid of latent bins), which is the quantitative
 * version of "points are grouped by feature values". The full
 * scatter is dumped to CSV for plotting.
 */

#include "studies/common.hh"

#include <cmath>
#include <algorithm>
#include <map>

#include "studies/latent.hh"
#include "util/stats.hh"

namespace {

/**
 * Fraction of variance of y explained by a piecewise-constant
 * predictor over a bins x bins grid of (z1, z2) positions.
 */
double
binnedR2(const std::vector<double> &z1, const std::vector<double> &z2,
         const std::vector<double> &y, int bins)
{
    const auto [z1_min, z1_max] =
        std::minmax_element(z1.begin(), z1.end());
    const auto [z2_min, z2_max] =
        std::minmax_element(z2.begin(), z2.end());
    const double w1 = std::max(*z1_max - *z1_min, 1e-12);
    const double w2 = std::max(*z2_max - *z2_min, 1e-12);

    std::map<int, std::pair<double, int>> cells; // sum, count
    std::vector<int> cell_of(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
        int b1 = static_cast<int>((z1[i] - *z1_min) / w1 * bins);
        int b2 = static_cast<int>((z2[i] - *z2_min) / w2 * bins);
        b1 = std::min(b1, bins - 1);
        b2 = std::min(b2, bins - 1);
        const int cell = b1 * bins + b2;
        cell_of[i] = cell;
        cells[cell].first += y[i];
        cells[cell].second += 1;
    }

    const double y_mean = vaesa::mean(y);
    double ss_tot = 0.0;
    double ss_res = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) {
        const auto &[sum, count] = cells[cell_of[i]];
        const double cell_mean = sum / count;
        ss_tot += (y[i] - y_mean) * (y[i] - y_mean);
        ss_res += (y[i] - cell_mean) * (y[i] - cell_mean);
    }
    return ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 0.0;
}

} // namespace

int
main()
{
    using namespace vaesa;
    const bench::Scale scale = bench::readScale();
    bench::banner("Figure 4",
                  "Training data encoded into a 2-D latent space");

    Evaluator evaluator;
    const Dataset data =
        bench::buildDataset(evaluator, scale.datasetSize, 42);
    VaesaFramework framework = bench::trainFramework(
        data, /*latent_dim=*/2, scale.epochs, 1e-4, 7);

    const std::size_t n = std::min<std::size_t>(data.size(), 5000);
    std::vector<double> z1, z2, log_macs, log_gbuf, log_edp;
    CsvWriter csv(bench::csvPath("fig04_latent_space.csv"));
    csv.header({"z1", "z2", "num_macs", "global_buf_bytes", "edp"});

    const Matrix mu = framework.vae().encodeMean(data.hwFeatures());
    for (std::size_t i = 0; i < n; ++i) {
        const DataSample &s = data.samples()[i];
        z1.push_back(mu(i, 0));
        z2.push_back(mu(i, 1));
        log_macs.push_back(
            std::log2(static_cast<double>(s.config.numMacs)));
        log_gbuf.push_back(std::log2(
            static_cast<double>(s.config.globalBufBytes)));
        log_edp.push_back(s.logLatency + s.logEnergy);
        csv.rowValues({mu(i, 0), mu(i, 1),
                       static_cast<double>(s.config.numMacs),
                       static_cast<double>(
                           s.config.globalBufBytes),
                       sampleEdp(data, i)});
    }

    std::printf("%zu encoded points (final recon MSE %.5f)\n\n", n,
                framework.history().back().reconLoss);
    std::printf("%-28s %9s %9s %12s\n", "quantity (log2)",
                "corr z1", "corr z2", "binned R^2");
    const struct
    {
        const char *name;
        const std::vector<double> &values;
    } rows[] = {
        {"number of MAC units", log_macs},
        {"global buffer size", log_gbuf},
        {"EDP (latency x energy)", log_edp},
    };
    bool structured = true;
    for (const auto &row : rows) {
        const double c1 = correlation(z1, row.values);
        const double c2 = correlation(z2, row.values);
        const double r2 = binnedR2(z1, z2, row.values, 10);
        std::printf("%-28s %9.3f %9.3f %12.3f\n", row.name, c1, c2,
                    r2);
        structured &= r2 > 0.25;
    }

    bench::rule();
    std::printf("paper claim: points are grouped by feature values "
                "in the latent space\n");
    std::printf("measured:    latent position %s each quantity "
                "(binned R^2 > 0.25 %s)\n",
                structured ? "explains" : "does NOT explain",
                structured ? "for all three" : "failed");
    std::printf("scatter CSV: bench_out/fig04_latent_space.csv\n");
    return 0;
}
