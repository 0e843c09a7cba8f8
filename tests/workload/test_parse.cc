/** @file Unit tests for layer-file parsing. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "../common/layer_line.hh"
#include "../common/temp_path.hh"
#include "workload/parse.hh"

namespace vaesa {
namespace {

TEST(ParseLayerLine, PlainDimensions)
{
    const auto layer =
        parseLayerLine("3 3 56 56 64 128 1 1", "dflt");
    ASSERT_TRUE(layer.has_value());
    EXPECT_EQ(layer->name, "dflt");
    EXPECT_EQ(layer->r, 3);
    EXPECT_EQ(layer->k, 128);
    EXPECT_EQ(layer->strideH, 1);
}

TEST(ParseLayerLine, NamedLayer)
{
    const auto layer =
        parseLayerLine("myconv 5 5 700 161 1 64 2 2", "dflt");
    ASSERT_TRUE(layer.has_value());
    EXPECT_EQ(layer->name, "myconv");
    EXPECT_EQ(layer->p, 700);
    EXPECT_EQ(layer->strideW, 2);
}

TEST(ParseLayerLine, CommentsAndBlanksAreSkipped)
{
    std::string error;
    EXPECT_FALSE(parseLayerLine("", "d", &error).has_value());
    EXPECT_FALSE(parseLayerLine("   ", "d", &error).has_value());
    EXPECT_FALSE(
        parseLayerLine("# a comment", "d", &error).has_value());
    // Skipped lines are not errors.
    EXPECT_TRUE(error.empty());
    const auto layer =
        parseLayerLine("1 1 1 1 256 128 1 1 # trailing", "d");
    ASSERT_TRUE(layer.has_value());
    EXPECT_EQ(layer->c, 256);
}

TEST(ParseLayerLine, WrongColumnCountIsReported)
{
    std::string error;
    EXPECT_FALSE(
        parseLayerLine("3 3 56 56 64 128 1", "d", &error)
            .has_value());
    EXPECT_NE(error.find("expected 8 dimensions"),
              std::string::npos);
}

TEST(ParseLayerLine, NonIntegerIsReported)
{
    std::string error;
    EXPECT_FALSE(
        parseLayerLine("3 3 56 x 64 128 1 1", "d", &error)
            .has_value());
    EXPECT_NE(error.find("not an integer"), std::string::npos);
}

TEST(ParseLayerLine, NonPositiveDimensionIsReported)
{
    std::string error;
    EXPECT_FALSE(
        parseLayerLine("3 3 0 56 64 128 1 1", "d", &error)
            .has_value());
    EXPECT_NE(error.find("non-positive"), std::string::npos);
}

// Regression: a leading SIGNED number used to be classified as the
// optional layer name (the name probe only looked at isdigit of the
// first character), silently shifting all eight dimensions one
// column right and then failing with a misleading column-count
// error. A signed token must reach the dimension parser and get the
// proper non-positive rejection.
TEST(ParseLayerLine, SignedLeadingTokenIsADimensionNotAName)
{
    std::string error;
    EXPECT_FALSE(
        parseLayerLine("-5 3 56 56 64 128 1 1", "d", &error)
            .has_value());
    EXPECT_NE(error.find("non-positive"), std::string::npos)
        << error;

    // A '+'-signed positive dimension parses as that dimension.
    const auto layer =
        parseLayerLine("+3 3 56 56 64 128 1 1", "d");
    ASSERT_TRUE(layer.has_value());
    EXPECT_EQ(layer->name, "d");
    EXPECT_EQ(layer->r, 3);
}

// A name that merely STARTS with a sign (no digit after) is still a
// name, as before the fix.
TEST(ParseLayerLine, SignPrefixedWordIsStillAName)
{
    const auto layer =
        parseLayerLine("-weird 3 3 56 56 64 128 1 1", "d");
    ASSERT_TRUE(layer.has_value());
    EXPECT_EQ(layer->name, "-weird");
    EXPECT_EQ(layer->r, 3);
}

// Regression: strtoll saturates to INT64_MAX on overflow, so a
// 20-digit dimension used to come back as a "valid" 9.2e18 layer.
TEST(ParseLayerLine, Int64OverflowIsReported)
{
    std::string error;
    EXPECT_FALSE(parseLayerLine(
                     "3 3 56 56 99999999999999999999 128 1 1", "d",
                     &error)
                     .has_value());
    EXPECT_NE(error.find("overflows int64"), std::string::npos)
        << error;
}

// Dimensions that individually fit int64 but whose products exceed
// the 2^53 exact-integer range are structurally rejected at the
// parse boundary instead of flowing into cost-model arithmetic.
TEST(ParseLayerLine, OversizeProductIsReported)
{
    std::string error;
    EXPECT_FALSE(
        parseLayerLine("1 1 1000000000 1 1000000000 1000000000 1 1",
                       "d", &error)
            .has_value());
    EXPECT_NE(error.find("2^53"), std::string::npos) << error;
}

TEST(FormatLayerLine, RoundTripsExactly)
{
    LayerShape l;
    l.name = "rt.conv";
    l.r = 3;
    l.s = 5;
    l.p = 700;
    l.q = 161;
    l.c = 1;
    l.k = 64;
    l.strideW = 2;
    l.strideH = 2;
    const std::string line = testing::formatLayerLine(l);
    const auto back = parseLayerLine(line, "dflt");
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(back->name, "rt.conv");
    EXPECT_TRUE(back->sameShape(l));
}

class ParseFileTest : public ::testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return testing::uniqueTempPath("vaesa_layers", ".txt");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }
};

TEST_F(ParseFileTest, ParsesMixedFile)
{
    {
        std::ofstream out(tempPath());
        out << "# my custom network\n";
        out << "stem 7 7 112 112 3 64 2 2\n";
        out << "\n";
        out << "3 3 56 56 64 64 1 1\n";
        out << "fc 1 1 1 1 2048 1000 1 1\n";
    }
    auto layers = parseLayerFile(tempPath());
    ASSERT_TRUE(layers.ok());
    ASSERT_EQ(layers.value().size(), 3u);
    EXPECT_EQ(layers.value()[0].name, "stem");
    EXPECT_EQ(layers.value()[1].name, "custom.layer2");
    EXPECT_EQ(layers.value()[2].k, 1000);
}

TEST_F(ParseFileTest, MissingFileReportsOpenFailed)
{
    auto layers = parseLayerFile(::testing::TempDir() +
                                 "/no_layers_here.txt");
    ASSERT_FALSE(layers.ok());
    EXPECT_EQ(layers.error().kind, LoadError::Kind::OpenFailed);
}

TEST_F(ParseFileTest, MalformedLineNamesFileAndLine)
{
    {
        std::ofstream out(tempPath());
        out << "# header comment\n";
        out << "stem 7 7 112 112 3 64 2 2\n";
        out << "3 3 56 56 64\n"; // too few dimensions
    }
    auto layers = parseLayerFile(tempPath());
    ASSERT_FALSE(layers.ok());
    EXPECT_EQ(layers.error().kind, LoadError::Kind::Malformed);
    EXPECT_EQ(layers.error().file, tempPath());
    EXPECT_EQ(layers.error().line, 3u);
    EXPECT_NE(layers.error().message.find("expected 8 dimensions"),
              std::string::npos);
}

TEST_F(ParseFileTest, EmptyFileIsStructuredError)
{
    {
        std::ofstream out(tempPath());
        out << "# nothing but comments\n";
    }
    auto layers = parseLayerFile(tempPath());
    ASSERT_FALSE(layers.ok());
    EXPECT_EQ(layers.error().kind, LoadError::Kind::Malformed);
    EXPECT_NE(layers.error().message.find("no layers"),
              std::string::npos);
}

} // namespace
} // namespace vaesa
