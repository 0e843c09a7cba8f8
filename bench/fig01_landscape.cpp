/**
 * @file
 * Reproduces Figure 1: the irregular latency and energy landscapes of
 * ResNet-50 across a 1-D slice of the design space. The accumulation
 * buffer takes a growing share of a fixed 2.7 MB buffer budget (the
 * weight buffer gets the remainder); all other parameters are held
 * constant. The reproduction target is the *shape*: non-monotonic,
 * stair-stepped curves with multiple local minima.
 */

#include "studies/common.hh"

#include <cmath>

int
main()
{
    using namespace vaesa;
    bench::banner("Figure 1",
                  "Latency/energy landscape vs accumulation-buffer "
                  "share of a 2.7 MB budget (ResNet-50)");

    Evaluator evaluator;
    const Workload resnet = workloadByName("resnet50");
    const DesignSpace &ds = designSpace();

    const std::int64_t total_budget = 2700 * 1024; // 2.7 MB
    AcceleratorConfig base;
    base.numPes = 16;
    base.numMacs = 1024;
    base.inputBufBytes = ds.snapValue(HwParam::InputBufBytes,
                                      64 * 1024);
    base.globalBufBytes = ds.snapValue(HwParam::GlobalBufBytes,
                                       128 * 1024);

    CsvWriter csv(bench::csvPath("fig01_landscape.csv"));
    csv.header({"accum_share_pct", "accum_bytes", "weight_bytes",
                "latency_cycles", "energy_pj", "edp"});

    std::printf("%-12s %12s %12s %14s %14s\n", "accum share",
                "accum (KB)", "weight (KB)", "latency (cyc)",
                "energy (pJ)");

    std::vector<double> edps;
    const std::int64_t accum_count = ds.count(HwParam::AccumBufBytes);
    for (std::int64_t idx = 0; idx < accum_count; idx += 2) {
        AcceleratorConfig config = base;
        config.accumBufBytes =
            ds.indexToValue(HwParam::AccumBufBytes, idx);
        config.weightBufBytes = ds.snapValue(
            HwParam::WeightBufBytes,
            total_budget - config.accumBufBytes);

        const EvalResult r =
            evaluator.evaluateWorkload(config, resnet.layers);
        if (!r.valid)
            continue;
        const double share = 100.0 *
                             static_cast<double>(
                                 config.accumBufBytes) /
                             static_cast<double>(total_budget);
        if (idx % 16 == 0) {
            std::printf("%10.2f%% %12lld %12lld %14.4g %14.4g\n",
                        share,
                        static_cast<long long>(
                            config.accumBufBytes / 1024),
                        static_cast<long long>(
                            config.weightBufBytes / 1024),
                        r.latencyCycles, r.energyPj);
        }
        csv.rowValues({share,
                       static_cast<double>(config.accumBufBytes),
                       static_cast<double>(config.weightBufBytes),
                       r.latencyCycles, r.energyPj, r.edp});
        edps.push_back(r.edp);
    }

    // Quantify irregularity: count interior local minima of the EDP
    // slice (the paper's point is that the surface is non-convex).
    int local_minima = 0;
    for (std::size_t i = 1; i + 1 < edps.size(); ++i)
        if (edps[i] < edps[i - 1] && edps[i] < edps[i + 1])
            ++local_minima;
    bench::rule();
    std::printf("points=%zu  EDP range=[%.4g, %.4g]  "
                "interior local minima=%d (non-convex slice)\n",
                edps.size(),
                *std::min_element(edps.begin(), edps.end()),
                *std::max_element(edps.begin(), edps.end()),
                local_minima);
    return 0;
}
