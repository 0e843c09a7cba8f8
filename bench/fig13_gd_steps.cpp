/**
 * @file
 * Reproduces Figure 13: real EDP of decoded designs after 0, 100,
 * and 200 gradient-descent steps from random latent starting points
 * (the paper uses 200 starts and reports 306x / 390x improvement at
 * 100 / 200 steps relative to the decoded start points). The scale
 * of the improvement factor depends on how bad random latent starts
 * are; the reproduction target is large monotone improvement before
 * any simulation is run.
 */

#include "studies/common.hh"

#include <cmath>

#include "util/stats.hh"
#include "studies/latent.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    const Scale scale = readScale();
    banner("Figure 13",
           "EDP improvement vs number of GD steps over " +
               std::to_string(scale.gdStarts) +
               " random latent starts");

    Evaluator evaluator;
    const Dataset data =
        buildDataset(evaluator, scale.datasetSize, 42);
    VaesaFramework framework =
        trainFramework(data, 4, scale.epochs, 1e-4, 7);

    // Start points are drawn wide (2x the data radius) so that, as
    // in the paper, un-descended decodes are poor designs.
    VaeGdOptions options;
    options.startSigma =
        std::max(2.0, 2.0 * framework.latentRadius(data));
    options.radius = 2.0 * options.startSigma;

    const std::vector<std::size_t> step_marks{0, 100, 200};
    CsvWriter csv(csvPath("fig13_gd_steps.csv"));
    csv.header({"layer", "steps", "geomean_edp", "improvement"});

    std::printf("%-14s %14s %14s %14s %10s %10s\n", "layer",
                "EDP@0", "EDP@100", "EDP@200", "impr@100",
                "impr@200");

    std::vector<double> impr_100, impr_200;
    Rng rng(99);
    for (const LayerShape &layer : gdTestLayers()) {
        const auto means = gdStepStudy(
            framework, evaluator, layer, scale.gdStarts,
            step_marks, options, rng);
        if (!std::isfinite(means[0]) || !std::isfinite(means[1]) ||
            !std::isfinite(means[2])) {
            std::printf("%-14s  (no valid decodes)\n",
                        layer.name.c_str());
            continue;
        }
        const double impr100 = means[0] / means[1];
        const double impr200 = means[0] / means[2];
        std::printf("%-14s %14.4g %14.4g %14.4g %9.1fx %9.1fx\n",
                    layer.name.c_str(), means[0], means[1],
                    means[2], impr100, impr200);
        for (std::size_t m = 0; m < step_marks.size(); ++m) {
            csv.row({layer.name, std::to_string(step_marks[m]),
                     CsvWriter::cell(means[m]),
                     CsvWriter::cell(means[0] / means[m])});
        }
        impr_100.push_back(impr100);
        impr_200.push_back(impr200);
    }

    const double geo100 = geomean(impr_100);
    const double geo200 = geomean(impr_200);
    rule();
    std::printf("paper: 306x improvement after 100 steps, 390x "
                "after 200 (relative to random starts)\n");
    std::printf("measured (geomean over layers): %.0fx after 100 "
                "steps, %.0fx after 200 steps\n",
                geo100, geo200);
    std::printf("shape check: improvement at 200 >= at 100: %s\n",
                geo200 >= geo100 * 0.99 ? "reproduced"
                                         : "NOT reproduced");
    return 0;
}
