/**
 * @file
 * Ablation (beyond the paper): quality of the one-shot scheduler
 * (CoSA stand-in) against a Timeloop-style random mapping search.
 * The VAESA pipeline evaluates thousands of design points, so the
 * mapper must be both fast and near-optimal; this bench quantifies
 * the EDP gap and the throughput gap between the two on every
 * training layer at three architectures.
 */

#include "studies/common.hh"

#include <chrono>

#include "studies/random_mapper.hh"
#include "sched/scheduler.hh"
#include "util/stats.hh"

int
main()
{
    using namespace vaesa;
    using namespace vaesa::bench;
    banner("Ablation: one-shot scheduler vs random mapping search",
           "EDP ratio (one-shot / searched; <1 means one-shot "
           "wins) and mappings/second");

    CostModel model;
    Scheduler scheduler(model);
    RandomMapper::Options mapper_options;
    mapper_options.samples = static_cast<std::size_t>(
        envInt("VAESA_MAPPER_SAMPLES", 200));
    RandomMapper mapper(model, mapper_options);

    AcceleratorConfig configs[3];
    configs[0] = {16, 1024, 48 * 1024, 1024 * 1024, 64 * 1024,
                  128 * 1024};
    configs[1] = {64, 4096, 96 * 1024, 4 * 1024 * 1024, 256 * 1024,
                  256 * 1024};
    configs[2] = {4, 256, 12 * 1024, 128 * 1024, 16 * 1024,
                  64 * 1024};

    CsvWriter csv(csvPath("abl_mapper.csv"));
    csv.header({"config", "layer", "one_shot_edp", "searched_edp",
                "ratio"});

    std::vector<double> ratios;
    double one_shot_seconds = 0.0;
    double search_seconds = 0.0;
    std::size_t mapped = 0;

    Rng rng(13);
    for (int ci = 0; ci < 3; ++ci) {
        const AcceleratorConfig &arch = configs[ci];
        for (const Workload &w : trainingWorkloads()) {
            for (const LayerShape &layer : w.layers) {
                const auto t0 =
                    std::chrono::steady_clock::now();
                const auto one_shot =
                    scheduler.schedule(arch, layer);
                const auto t1 =
                    std::chrono::steady_clock::now();
                const auto searched =
                    mapper.search(arch, layer, rng);
                const auto t2 =
                    std::chrono::steady_clock::now();
                one_shot_seconds +=
                    std::chrono::duration<double>(t1 - t0).count();
                search_seconds +=
                    std::chrono::duration<double>(t2 - t1).count();
                if (!one_shot || !searched)
                    continue;
                const double edp_one =
                    model.evaluate(arch, layer, *one_shot).edp();
                const double edp_search =
                    model.evaluate(arch, layer, *searched).edp();
                const double ratio = edp_one / edp_search;
                ratios.push_back(ratio);
                csv.row({std::to_string(ci), layer.name,
                         CsvWriter::cell(edp_one),
                         CsvWriter::cell(edp_search),
                         CsvWriter::cell(ratio)});
                ++mapped;
            }
        }
    }

    const double geo = geomean(ratios);
    double wins = 0;
    for (double r : ratios)
        wins += r <= 1.0;

    std::printf("%zu (arch, layer) pairs mapped by both\n\n",
                mapped);
    std::printf("geomean EDP ratio one-shot/searched: %.3f\n", geo);
    std::printf("one-shot at least as good on %.0f%% of pairs\n",
                100.0 * wins / static_cast<double>(mapped));
    std::printf("time per mapping: one-shot %.1f us, %zu-sample "
                "search %.1f us (%.0fx slower)\n",
                1e6 * one_shot_seconds / mapped,
                mapper_options.samples,
                1e6 * search_seconds / mapped,
                search_seconds / one_shot_seconds);

    rule();
    std::printf("design premise: the one-shot mapper is within a "
                "small factor of search at a fraction of the cost "
                "(CoSA's claim, and what makes 2000-sample DSE "
                "tractable)\n");
    return 0;
}
