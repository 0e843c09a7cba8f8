/**
 * @file
 * Golden regression test for the one-shot mapper: every mapping the
 * Scheduler chooses for a seeded config sample (plus the 4 golden
 * probe configs) against the unique layers of every named workload
 * (training set and zoo) is folded into a per-workload FNV-1a digest
 * and a count of valid mappings, frozen in a checked-in file. Any
 * scheduler refactor that changes a single tile factor of a single
 * mapping fails here, even if the cost it leads to happens to agree.
 *
 * To regenerate after an INTENDED mapper change:
 *   VAESA_UPDATE_GOLDEN=1 ./build/tests/test_sched \
 *       --gtest_filter='GoldenMapping.*'
 * then commit the rewritten tests/sched/golden_mapping.txt.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sched/scheduler.hh"
#include "util/rng.hh"
#include "workload/networks.hh"
#include "workload/zoo.hh"

#include "../common/golden_configs.hh"

namespace vaesa {
namespace {

/** Seeded configs scored on top of the 4 golden probes: on-grid
 *  samples, plus off-grid ones with tiny buffers that drive the
 *  mapper's shrink paths and its no-legal-mapping exits. */
constexpr std::size_t onGridConfigs = 2000;
constexpr std::size_t offGridConfigs = 1000;
constexpr std::uint64_t sampleSeed = 20220515;

std::string
goldenPath()
{
    return std::string(VAESA_TEST_DATA_DIR) +
           "/sched/golden_mapping.txt";
}

/** 64-bit FNV-1a over little-endian int64 words. */
class Fnv1a
{
  public:
    void
    add(std::int64_t value)
    {
        auto bits = static_cast<std::uint64_t>(value);
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= bits & 0xFFu;
            hash_ *= 0x100000001B3ull;
            bits >>= 8;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ull;
};

struct WorkloadDigest
{
    std::string name;
    std::size_t valid = 0;
    std::uint64_t digest = 0;
};

std::vector<AcceleratorConfig>
probeConfigs()
{
    std::vector<AcceleratorConfig> configs = testing::goldenConfigs();
    Rng rng(sampleSeed);
    for (std::size_t i = 0; i < onGridConfigs; ++i)
        configs.push_back(designSpace().randomConfig(rng));
    // Uniform integer in [lo, hi].
    const auto range = [&rng](std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(rng.index(hi - lo + 1));
    };
    // Buffers log-uniform over 1 B .. 4 MiB, so a fair share of
    // these cannot hold even a minimal tile of the larger layers.
    const auto bytes = [&range] { return range(1, 64) << range(0, 16); };
    for (std::size_t i = 0; i < offGridConfigs; ++i) {
        AcceleratorConfig c;
        c.numPes = range(1, 64);
        c.numMacs = c.numPes * range(1, 128);
        c.accumBufBytes = bytes();
        c.weightBufBytes = bytes();
        c.inputBufBytes = bytes();
        c.globalBufBytes = bytes();
        configs.push_back(c);
    }
    return configs;
}

std::vector<WorkloadDigest>
computeDigests()
{
    std::vector<Workload> workloads = trainingWorkloads();
    for (Workload &w : zooWorkloads())
        workloads.push_back(std::move(w));

    const Scheduler scheduler;
    const std::vector<AcceleratorConfig> configs = probeConfigs();
    std::vector<WorkloadDigest> digests;
    for (const Workload &w : workloads) {
        WorkloadDigest row;
        row.name = w.name;
        Fnv1a fnv;
        for (const LayerShape &layer :
             uniqueLayersCounted(w.layers, nullptr)) {
            for (const AcceleratorConfig &config : configs) {
                const auto mapping = scheduler.schedule(config, layer);
                const Mapping m = mapping.value_or(Mapping{});
                fnv.add(mapping.has_value() ? 1 : 0);
                fnv.add(m.spatialK);
                fnv.add(m.spatialC);
                for (const std::int64_t t : m.tilePe)
                    fnv.add(t);
                for (const std::int64_t t : m.tileGb)
                    fnv.add(t);
                row.valid += mapping.has_value() ? 1 : 0;
            }
        }
        row.digest = fnv.value();
        digests.push_back(row);
    }
    return digests;
}

std::string
formatRow(const WorkloadDigest &row)
{
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(row.digest));
    std::ostringstream out;
    out << row.name << " " << row.valid << " " << digest;
    return out.str();
}

TEST(GoldenMapping, EveryWorkloadMatchesFrozenDigest)
{
    const std::vector<WorkloadDigest> digests = computeDigests();

    if (const char *update = std::getenv("VAESA_UPDATE_GOLDEN");
        update && *update && std::string(update) != "0") {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << "# workload valid_mappings fnv1a64\n";
        for (const WorkloadDigest &row : digests)
            out << formatRow(row) << "\n";
        GTEST_SKIP() << "rewrote " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden file " << goldenPath();
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // header
    EXPECT_EQ(line, "# workload valid_mappings fnv1a64");
    std::size_t i = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ASSERT_LT(i, digests.size()) << "golden file has extra rows";
        EXPECT_EQ(formatRow(digests[i]), line) << "row " << i;
        ++i;
    }
    EXPECT_EQ(i, digests.size()) << "golden file is missing rows";
}

} // namespace
} // namespace vaesa
