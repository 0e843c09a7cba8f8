/**
 * @file
 * Beyond the paper's figures: the latency/energy trade-off behind
 * the EDP objective. The paper picks EDP "because it allows us to
 * investigate Pareto-optimal design points that trade off latency
 * and energy" (Section IV-A2); this harness makes the trade-off
 * explicit by sweeping random designs on ResNet-50, extracting the
 * (latency, energy) Pareto front, and showing where the EDP-optimal
 * design and per-metric optima sit on it.
 */

#include "studies/common.hh"

#include <cmath>

#include "studies/pareto.hh"
#include "util/stats.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    banner("Pareto study",
           "latency/energy trade-off of ResNet-50 designs");

    Evaluator evaluator;
    const Workload resnet = workloadByName("resnet50");
    const auto sweep =
        static_cast<std::size_t>(envInt("VAESA_PARETO_SWEEP", 4000));

    Rng rng(23);
    std::vector<BiPoint> points;
    std::vector<AcceleratorConfig> configs;
    while (points.size() < sweep) {
        const AcceleratorConfig config =
            designSpace().randomConfig(rng);
        const EvalResult r =
            evaluator.evaluateWorkload(config, resnet.layers);
        if (!r.valid)
            continue;
        points.push_back({r.latencyCycles, r.energyPj});
        configs.push_back(config);
    }

    const std::vector<std::size_t> front = paretoFront(points);

    // Locate the per-metric optima.
    std::size_t best_edp = 0;
    std::size_t best_lat = 0;
    std::size_t best_en = 0;
    for (std::size_t i = 1; i < points.size(); ++i) {
        if (points[i].first * points[i].second <
            points[best_edp].first * points[best_edp].second)
            best_edp = i;
        if (points[i].first < points[best_lat].first)
            best_lat = i;
        if (points[i].second < points[best_en].second)
            best_en = i;
    }

    CsvWriter csv(csvPath("pareto_front.csv"));
    csv.header({"latency_cycles", "energy_pj", "on_front",
                "is_edp_opt"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        bool on_front = false;
        for (std::size_t f : front)
            on_front |= f == i;
        csv.rowValues({points[i].first, points[i].second,
                       on_front ? 1.0 : 0.0,
                       i == best_edp ? 1.0 : 0.0});
    }

    std::printf("%zu valid designs sampled; Pareto front has %zu "
                "points\n\n",
                points.size(), front.size());
    std::printf("front (decimated):\n%16s %16s\n", "latency",
                "energy");
    const std::size_t stride =
        std::max<std::size_t>(1, front.size() / 12);
    for (std::size_t i = 0; i < front.size(); i += stride) {
        std::printf("%16.4g %16.4g\n", points[front[i]].first,
                    points[front[i]].second);
    }

    double ref_lat = 0.0;
    double ref_en = 0.0;
    for (const BiPoint &p : points) {
        ref_lat = std::max(ref_lat, p.first);
        ref_en = std::max(ref_en, p.second);
    }
    std::vector<BiPoint> front_points;
    for (std::size_t f : front)
        front_points.push_back(points[f]);
    const double hv =
        hypervolume(front_points, {ref_lat, ref_en});

    rule();
    std::printf("hypervolume (vs worst corner): %.4g\n", hv);
    std::printf("latency-optimal design: %s\n",
                configs[best_lat].describe().c_str());
    std::printf("energy-optimal  design: %s\n",
                configs[best_en].describe().c_str());
    std::printf("EDP-optimal     design: %s\n",
                configs[best_edp].describe().c_str());
    std::printf("EDP optimum dominated by some sampled point: %s "
                "(it should sit on/near the front)\n",
                isDominated(points[best_edp], points) ? "yes"
                                                       : "no");
    return 0;
}
