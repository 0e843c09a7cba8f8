/**
 * @file
 * Reproduces Figures 7 and 8: interpolation between the encodings of
 * the worst and best training points for 2-D and 4-D latent spaces.
 * The paper projects the predicted EDP (pEDP) onto the worst->best
 * axis and observes (a) a generally negative gradient toward the
 * best point, and (b) for the 2-D space, a local minimum between the
 * endpoints that can trap gradient descent -- motivating the 4-D
 * choice. The overshoot region (t > 1) probes whether descent would
 * stop near the best known point.
 */

#include "studies/common.hh"

#include <cmath>

#include "studies/latent.hh"

namespace {

/** Count interior local minima of a series. */
int
localMinima(const std::vector<double> &xs)
{
    int count = 0;
    for (std::size_t i = 1; i + 1 < xs.size(); ++i)
        if (xs[i] < xs[i - 1] && xs[i] < xs[i + 1])
            ++count;
    return count;
}

} // namespace

int
main()
{
    using namespace vaesa;
    const bench::Scale scale = bench::readScale();
    bench::banner("Figures 7/8",
                  "pEDP along the worst->best latent axis "
                  "(2-D vs 4-D latent spaces)");

    Evaluator evaluator;
    const Dataset data =
        bench::buildDataset(evaluator, scale.datasetSize, 42);
    const LayerShape layer = resNet50Layers()[2];
    const std::size_t segments = 20;
    const std::size_t overshoot = 8;

    CsvWriter csv(bench::csvPath("fig07_interpolation.csv"));
    csv.header({"latent_dim", "t", "predicted_edp", "real_edp",
                "l2_worst_best"});

    for (std::size_t latent_dim : {2u, 4u}) {
        VaesaFramework framework = bench::trainFramework(
            data, latent_dim, scale.epochs, 1e-4, 7);
        const auto points =
            interpolationStudy(framework, evaluator, data, layer,
                               segments, overshoot);

        const auto z0 = points.front().z;
        const auto z1 = points[segments].z;
        double l2 = 0.0;
        for (std::size_t d = 0; d < z0.size(); ++d)
            l2 += (z1[d] - z0[d]) * (z1[d] - z0[d]);
        l2 = std::sqrt(l2);

        std::vector<double> curve;
        for (const InterpolationPoint &pt : points) {
            curve.push_back(std::log2(pt.predictedEdp));
            csv.rowValues({static_cast<double>(latent_dim), pt.t,
                           pt.predictedEdp,
                           std::isfinite(pt.realEdp) ? pt.realEdp
                                                     : -1.0,
                           l2});
        }

        const int minima = localMinima(std::vector<double>(
            curve.begin(), curve.begin() + segments + 1));
        std::printf("\n%zu-D latent space | L2(worst, best) = %.2f "
                    "(paper: 0.96 for 2-D, 2.58 for 4-D)\n",
                    latent_dim, l2);
        std::printf("%6s %16s %16s\n", "t", "pred EDP", "real EDP");
        for (std::size_t i = 0; i < points.size(); i += 4) {
            std::printf("%6.2f %16.4g %16.4g\n", points[i].t,
                        points[i].predictedEdp, points[i].realEdp);
        }
        std::printf("pEDP drop worst->best: %.2fx | interior local "
                    "minima on the axis: %d\n",
                    points.front().predictedEdp /
                        points[segments].predictedEdp,
                    minima);
    }

    bench::rule();
    std::printf("paper claim: predicted surface slopes downhill "
                "toward the best point;\n"
                "             2-D shows a trap-prone local minimum, "
                "4-D is smoother\n");
    return 0;
}
