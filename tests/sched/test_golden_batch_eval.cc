/**
 * @file
 * Golden regression test for the BATCH evaluation pipeline: the same
 * frozen probe grid as golden_eval.csv, but scored through
 * evaluateCachedBatch over one-layer workloads (cache probe + SoA
 * batch cost model + work-stealing chunks), and frozen
 * into its own CSV compared at 0 ULP. A batch-path refactor that
 * drifts from the scalar landscape — even in the last bit — fails
 * here even if the scalar golden file still passes.
 *
 * To regenerate after an INTENDED cost-model change:
 *   VAESA_UPDATE_GOLDEN=1 ./build/tests/test_sched \
 *       --gtest_filter='GoldenBatchEval.*'
 * then commit the rewritten tests/sched/golden_batch_eval.csv.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sched/caching_evaluator.hh"
#include "sched/parallel_evaluator.hh"
#include "util/thread_pool.hh"
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
           "/sched/golden_batch_eval.csv";
}

/** %.17g round-trips an IEEE double exactly (0-ULP comparison). */
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

/** Score the whole probe grid through the batch pipeline: all four
 *  configs as ONE batch per one-layer workload, on a 4-thread pool
 *  through a fresh cache (so chunking, cache merge, and dedup are
 *  all live). */
std::vector<GoldenRow>
computeRows()
{
    const Evaluator evaluator;
    const CachingEvaluator cache(evaluator);
    ThreadPool pool(4);

    const auto configs = goldenConfigs();
    const auto layers = resNet50Layers();
    std::vector<GoldenRow> rows;
    for (std::size_t l : goldenLayerIndices()) {
        const std::vector<EvalResult> results = evaluateCachedBatch(
            cache, configs, {"", {layers[l]}, {}}, pool);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const EvalResult &r = results[c];
            rows.push_back({c, l, r.valid ? 1 : 0, r.latencyCycles,
                            r.energyPj, r.edp});
        }
    }
    return rows;
}

std::vector<GoldenRow>
readGolden()
{
    std::ifstream in(goldenPath());
    EXPECT_TRUE(in) << "missing golden file " << goldenPath();
    std::vector<GoldenRow> rows;
    if (!in)
        return rows;
    std::string line;
    EXPECT_TRUE(std::getline(in, line)); // header
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        std::string field;
        GoldenRow row{};
        std::getline(fields, field, ',');
        row.config = std::stoul(field);
        std::getline(fields, field, ',');
        row.layer = std::stoul(field);
        std::getline(fields, field, ',');
        row.valid = std::stoi(field);
        std::getline(fields, field, ',');
        row.latency = std::stod(field);
        std::getline(fields, field, ',');
        row.energy = std::stod(field);
        std::getline(fields, field, ',');
        row.edp = std::stod(field);
        rows.push_back(row);
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

TEST(GoldenBatchEval, BatchPipelineMatchesFrozenValuesExactly)
{
    const std::vector<GoldenRow> rows = computeRows();

    if (const char *update = std::getenv("VAESA_UPDATE_GOLDEN");
        update && *update && std::string(update) != "0") {
        writeGolden(rows);
        GTEST_SKIP() << "rewrote " << goldenPath();
    }

    const std::vector<GoldenRow> want = readGolden();
    ASSERT_EQ(want.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].config, want[i].config) << "row " << i;
        EXPECT_EQ(rows[i].layer, want[i].layer) << "row " << i;
        EXPECT_EQ(rows[i].valid, want[i].valid) << "row " << i;
        // Exact comparison — 0 ULP drift allowed.
        EXPECT_EQ(rows[i].latency, want[i].latency) << "row " << i;
        EXPECT_EQ(rows[i].energy, want[i].energy) << "row " << i;
        EXPECT_EQ(rows[i].edp, want[i].edp) << "row " << i;
    }
}

TEST(GoldenBatchEval, MatchesScalarGoldenFileRowForRow)
{
    // The batch golden file and the scalar golden file freeze the
    // same probe grid; they must agree bit for bit, or batch and
    // scalar landscapes have split.
    if (std::getenv("VAESA_UPDATE_GOLDEN"))
        GTEST_SKIP() << "regeneration run";
    const std::vector<GoldenRow> batch = readGolden();
    std::ifstream in(std::string(VAESA_TEST_DATA_DIR) +
                     "/sched/golden_eval.csv");
    ASSERT_TRUE(in) << "missing scalar golden file";
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // header
    std::size_t matched = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
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
        for (const GoldenRow &got : batch) {
            if (got.config != want.config || got.layer != want.layer)
                continue;
            EXPECT_EQ(got.valid, want.valid);
            EXPECT_EQ(got.latency, want.latency);
            EXPECT_EQ(got.energy, want.energy);
            EXPECT_EQ(got.edp, want.edp);
            ++matched;
        }
    }
    EXPECT_EQ(matched, batch.size());
}

TEST(GoldenBatchEval, GoldenFileCoversTheWholeProbeGrid)
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
