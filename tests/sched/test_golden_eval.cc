/**
 * @file
 * Golden regression test: EvalResult latency/energy/EDP values for a
 * fixed config x ResNet-50-layer grid are frozen into a checked-in
 * CSV and compared at 0 ULP. Any evaluator/scheduler/cost-model
 * refactor that shifts the cost landscape — even in the last bit —
 * fails here instead of silently warping every search result.
 *
 * To regenerate after an INTENDED cost-model change:
 *   VAESA_UPDATE_GOLDEN=1 ./build/tests/test_sched \
 *       --gtest_filter='GoldenEval.*'
 * then commit the rewritten tests/sched/golden_eval.csv.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sched/evaluator.hh"
#include "workload/networks.hh"

#include "../common/golden_configs.hh"

namespace vaesa {
namespace {

using testing::goldenConfigs;

/** The frozen layer subset (small ResNet-50 slice). */
std::vector<std::size_t>
goldenLayerIndices()
{
    return {0, 2, 5, 9, 14, 23};
}

std::string
goldenPath()
{
    return std::string(VAESA_TEST_DATA_DIR) +
           "/sched/golden_eval.csv";
}

/** %.17g round-trips an IEEE double exactly: printing and parsing
 *  back yields the identical bit pattern, so the CSV comparison is a
 *  true 0-ULP check. */
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

struct GoldenRow
{
    std::size_t config;
    std::size_t layer;
    int valid;
    double latency;
    double energy;
    double edp;
};

std::vector<GoldenRow>
computeRows()
{
    const Evaluator evaluator;
    const auto layers = resNet50Layers();
    std::vector<GoldenRow> rows;
    for (std::size_t c = 0; c < goldenConfigs().size(); ++c) {
        const AcceleratorConfig config = goldenConfigs()[c];
        for (std::size_t l : goldenLayerIndices()) {
            const EvalResult r =
                evaluator.evaluateLayer(config, layers[l]);
            rows.push_back({c, l, r.valid ? 1 : 0, r.latencyCycles,
                            r.energyPj, r.edp});
        }
    }
    return rows;
}

void
writeGolden(const std::vector<GoldenRow> &rows)
{
    std::ofstream out(goldenPath());
    ASSERT_TRUE(out) << "cannot write " << goldenPath();
    out << "config,layer,valid,latency_cycles,energy_pj,edp\n";
    for (const GoldenRow &row : rows)
        out << row.config << "," << row.layer << "," << row.valid
            << "," << formatDouble(row.latency) << ","
            << formatDouble(row.energy) << ","
            << formatDouble(row.edp) << "\n";
}

TEST(GoldenEval, ResNet50SliceMatchesFrozenValuesExactly)
{
    const std::vector<GoldenRow> rows = computeRows();

    if (const char *update = std::getenv("VAESA_UPDATE_GOLDEN");
        update && *update && std::string(update) != "0") {
        writeGolden(rows);
        GTEST_SKIP() << "rewrote " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden file " << goldenPath();
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // header
    std::size_t i = 0;
    while (std::getline(in, line)) {
        ASSERT_LT(i, rows.size()) << "golden file has extra rows";
        std::istringstream fields(line);
        std::string field;
        GoldenRow want{};
        std::getline(fields, field, ',');
        want.config = std::stoul(field);
        std::getline(fields, field, ',');
        want.layer = std::stoul(field);
        std::getline(fields, field, ',');
        want.valid = std::stoi(field);
        std::getline(fields, field, ',');
        want.latency = std::stod(field);
        std::getline(fields, field, ',');
        want.energy = std::stod(field);
        std::getline(fields, field, ',');
        want.edp = std::stod(field);

        const GoldenRow &got = rows[i];
        EXPECT_EQ(got.config, want.config) << "row " << i;
        EXPECT_EQ(got.layer, want.layer) << "row " << i;
        EXPECT_EQ(got.valid, want.valid) << "row " << i;
        // Exact comparison — 0 ULP drift allowed.
        EXPECT_EQ(got.latency, want.latency) << "row " << i;
        EXPECT_EQ(got.energy, want.energy) << "row " << i;
        EXPECT_EQ(got.edp, want.edp) << "row " << i;
        ++i;
    }
    EXPECT_EQ(i, rows.size()) << "golden file is missing rows";
}

TEST(GoldenEval, GoldenFileCoversTheWholeProbeGrid)
{
    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden file " << goldenPath();
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "config,layer,valid,latency_cycles,energy_pj,edp");
    std::size_t count = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++count;
    EXPECT_EQ(count, goldenConfigs().size() *
                         goldenLayerIndices().size());
}

} // namespace
} // namespace vaesa
