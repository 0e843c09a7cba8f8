/** @file Unit tests for dataset loading and fine-tuning. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "../common/temp_path.hh"
#include "fixtures.hh"
#include "vaesa/dataset_io.hh"

namespace vaesa {
namespace {

class DatasetIoTest : public ::testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return testing::uniqueTempPath("vaesa_dataset", ".csv");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }
};

TEST_F(DatasetIoTest, LoadsSamplesAndPool)
{
    {
        std::ofstream out(tempPath());
        out << "kind,name_or_index,f0,f1,f2,f3,f4,f5,f6,f7\n";
        out << "layer,conv1,3,3,16,16,3,64,1,1\n";
        out << "layer,fc,1,1,1,1,512,10,1,1\n";
        out << "sample,0,64,32,4096,8192,8192,131072,10.5,12.25\n";
        out << "sample,1,16,16,1024,2048,4096,65536,7.75,9.5\n";
    }
    auto loaded = loadDatasetCsv(tempPath());
    ASSERT_TRUE(loaded.ok());
    const Dataset &data = loaded.value();
    ASSERT_EQ(data.size(), 2u);
    ASSERT_EQ(data.layerPool().size(), 2u);
    EXPECT_EQ(data.layerPool()[1].name, "fc");
    EXPECT_EQ(data.layerPool()[1].c, 512);

    const DataSample &s = data.samples()[1];
    EXPECT_EQ(s.layerIndex, 1u);
    EXPECT_EQ(s.config.numPes, 16);
    EXPECT_EQ(s.config.globalBufBytes, 65536);
    EXPECT_DOUBLE_EQ(s.logLatency, 7.75);
    EXPECT_DOUBLE_EQ(s.logEnergy, 9.5);
    // Features are recomputed from the loaded config and layer.
    EXPECT_EQ(s.hwFeatures, designSpace().toFeatures(s.config));
    EXPECT_EQ(s.layerFeatures, data.layerPool()[1].toFeatures());
}

TEST_F(DatasetIoTest, MissingFileReportsOpenFailed)
{
    auto loaded = loadDatasetCsv(::testing::TempDir() +
                                 "/no_such_dataset.csv");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, LoadError::Kind::OpenFailed);
}

TEST_F(DatasetIoTest, MalformedRowNamesFileAndLine)
{
    {
        std::ofstream out(tempPath());
        out << "kind,name_or_index,f0,f1,f2,f3,f4,f5,f6,f7\n";
        out << "layer,x,1,1,1,1,1,1,1,1\n";
        out << "sample,0,16\n"; // too few cells
    }
    auto loaded = loadDatasetCsv(tempPath());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
    EXPECT_EQ(loaded.error().file, tempPath());
    EXPECT_EQ(loaded.error().line, 3u);
    EXPECT_NE(loaded.error().message.find("malformed"),
              std::string::npos);
}

TEST_F(DatasetIoTest, UnknownKindIsStructuredError)
{
    {
        std::ofstream out(tempPath());
        out << "kind,name_or_index,f0,f1,f2,f3,f4,f5,f6,f7\n";
        out << "bogus,x,1,1,1,1,1,1,1,1\n";
    }
    auto loaded = loadDatasetCsv(tempPath());
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().kind, LoadError::Kind::Malformed);
    EXPECT_NE(loaded.error().message.find("unknown row kind"),
              std::string::npos);
}

TEST(FineTune, ImprovesOnNewData)
{
    // Fine-tuning on fresh samples must not blow up and should keep
    // or improve the predictor losses on that data.
    Evaluator &ev = testing::sharedEvaluator();
    Rng rng(4);
    std::vector<LayerShape> pool;
    for (const Workload &w : trainingWorkloads())
        pool.insert(pool.end(), w.layers.begin(), w.layers.end());
    const Dataset fresh =
        DatasetBuilder(ev, pool).build(400, rng);

    FrameworkOptions options;
    options.vae.latentDim = 4;
    options.vae.hiddenDims = {32, 16};
    options.train.epochs = 6;
    VaesaFramework framework(testing::sharedDataset(), options, 5);
    const std::size_t history_before = framework.history().size();

    const auto tuned = framework.fineTune(fresh, 6, 9);
    ASSERT_EQ(tuned.size(), 6u);
    EXPECT_EQ(framework.history().size(), history_before + 6);
    EXPECT_LE(tuned.back().totalLoss, tuned.front().totalLoss);
}

} // namespace
} // namespace vaesa
