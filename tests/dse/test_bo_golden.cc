/**
 * @file
 * Golden regression test for the BayesOpt driver: complete 220-sample
 * traces (every sampled point and its value, as raw IEEE-754 bits)
 * on an analytic objective are frozen into checked-in files, one per
 * GP kernel, and replayed bit for bit both serially and on a
 * 2-worker pool. The runs are long enough to cross every code path
 * a short test misses: penalized invalid observations, the
 * subset-of-data cap (more than maxGpPoints samples), and over a
 * dozen hyperparameter refits. Any change to the GP, the Cholesky
 * factorization, the triangular solves or the acquisition loop that
 * moves a single bit of any prediction fails here.
 *
 * To regenerate after an INTENDED change to the BO numerics:
 *   VAESA_UPDATE_GOLDEN=1 ./build/tests/test_dse \
 *       --gtest_filter='*BoGoldenTrace*Serial*'
 * then commit the rewritten tests/dse/golden_bo_trace_*.txt.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "dse/bo.hh"
#include "util/thread_pool.hh"

namespace vaesa {
namespace {

constexpr std::size_t goldenSamples = 220;
constexpr std::uint64_t goldenSeeds[] = {11, 23};

/**
 * Smooth, positive 3-D landscape with an infeasible half-space
 * (x0 + x1 > 0.9 scores invalidScore), so BO's penalty path runs on
 * every iteration once the region has been sampled. Pure function of
 * x, hence safe to fan out over a pool.
 */
class AnalyticObjective : public Objective
{
  public:
    std::size_t dim() const override { return 3; }
    std::vector<double> lowerBounds() const override
    {
        return {-1.0, -1.0, -1.0};
    }
    std::vector<double> upperBounds() const override
    {
        return {1.0, 1.0, 1.0};
    }
    double
    evaluate(const std::vector<double> &x) override
    {
        if (x[0] + x[1] > 0.9)
            return invalidScore;
        const double a = x[0] - 0.35;
        const double b = x[1] + 0.2;
        const double c = x[2] - 0.1;
        return 1.0 + a * a + 2.0 * b * b + 0.5 * c * c +
               0.3 * std::sin(5.0 * x[0]) * std::cos(3.0 * x[2]);
    }
    bool threadSafeEvaluate() const override { return true; }
};

BoOptions
goldenOptions(GaussianProcess::Kernel kernel)
{
    BoOptions options; // production defaults: 640 scored candidates
    options.kernel = kernel;
    return options;
}

std::string
hexBits(std::uint64_t bits)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

std::string
hexBits(double v)
{
    return hexBits(std::bit_cast<std::uint64_t>(v));
}

/** Run every golden seed and render the traces, one line per sample
 *  plus each run's next rng draw (pins how far the stream moved). */
std::vector<std::string>
renderRuns(GaussianProcess::Kernel kernel, ThreadPool *pool)
{
    std::vector<std::string> lines;
    for (std::uint64_t seed : goldenSeeds) {
        AnalyticObjective objective;
        Rng rng(seed);
        const SearchTrace trace = BayesOpt(goldenOptions(kernel))
            .run(objective, goldenSamples, rng, pool);
        lines.push_back("seed " + std::to_string(seed));
        for (std::size_t i = 0; i < trace.points.size(); ++i) {
            std::string line = std::to_string(i) + " " +
                               hexBits(trace.points[i].value);
            for (double xd : trace.points[i].x)
                line += " " + hexBits(xd);
            lines.push_back(std::move(line));
        }
        lines.push_back("rng " + hexBits(rng.next()));
    }
    return lines;
}

struct GoldenCase
{
    const char *name;
    GaussianProcess::Kernel kernel;
    const char *fileStem; // golden_bo_trace_<fileStem>.txt
    bool pooled;
};

/** Print the case by name, so test listings stay stable run to run. */
void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

std::string
goldenPath(const GoldenCase &c)
{
    return std::string(VAESA_TEST_DATA_DIR) + "/dse/golden_bo_trace_" +
           c.fileStem + ".txt";
}

class BoGoldenTrace : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(BoGoldenTrace, ReplaysBitForBit)
{
    const GoldenCase &c = GetParam();

    // The golden runs must actually reach the paths they pin.
    const BoOptions options = goldenOptions(c.kernel);
    ASSERT_GT(goldenSamples, options.maxGpPoints);
    ASSERT_GE((goldenSamples - options.initSamples) /
                  options.hyperRefitInterval,
              13u);

    std::unique_ptr<ThreadPool> pool;
    if (c.pooled)
        pool = std::make_unique<ThreadPool>(2);
    const std::vector<std::string> lines =
        renderRuns(c.kernel, pool.get());

    std::size_t invalid = 0;
    for (const std::string &line : lines)
        if (line.find(" " + hexBits(invalidScore)) != std::string::npos)
            ++invalid;
    EXPECT_GT(invalid, 0u) << "golden runs never hit the invalid region";

    if (const char *update = std::getenv("VAESA_UPDATE_GOLDEN");
        !c.pooled && update && *update && std::string(update) != "0") {
        std::ofstream out(goldenPath(c));
        ASSERT_TRUE(out) << "cannot write " << goldenPath(c);
        for (const std::string &line : lines)
            out << line << '\n';
        GTEST_SKIP() << "rewrote " << goldenPath(c);
    }

    std::ifstream in(goldenPath(c));
    ASSERT_TRUE(in) << "missing golden file " << goldenPath(c);
    std::vector<std::string> want;
    for (std::string line; std::getline(in, line);)
        want.push_back(line);
    ASSERT_EQ(lines.size(), want.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        ASSERT_EQ(lines[i], want[i]) << "first mismatch at line " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, BoGoldenTrace,
    ::testing::Values(
        GoldenCase{"Matern52Serial", GaussianProcess::Kernel::Matern52,
                   "matern52", false},
        GoldenCase{"Matern52Pool", GaussianProcess::Kernel::Matern52,
                   "matern52", true},
        GoldenCase{"RbfSerial", GaussianProcess::Kernel::Rbf, "rbf",
                   false},
        GoldenCase{"RbfPool", GaussianProcess::Kernel::Rbf, "rbf", true}),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace vaesa
