/** @file Unit tests for the CSV writer. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "../common/temp_path.hh"
#include "studies/csv.hh"

namespace vaesa {
namespace {

std::string
readAll(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

class CsvTest : public ::testing::Test
{
  protected:
    std::string
    tempPath()
    {
        return testing::uniqueTempPath("vaesa_csv_test", ".csv");
    }

    void TearDown() override { std::remove(tempPath().c_str()); }
};

TEST_F(CsvTest, WritesHeaderAndRows)
{
    {
        CsvWriter csv(tempPath());
        csv.header({"a", "b"});
        csv.row({"1", "2"});
        csv.rowValues({3.5, -4.25});
    }
    EXPECT_EQ(readAll(tempPath()), "a,b\n1,2\n3.5,-4.25\n");
}

TEST_F(CsvTest, QuotesSpecialCharacters)
{
    {
        CsvWriter csv(tempPath());
        csv.row({"plain", "with,comma", "with\"quote"});
    }
    EXPECT_EQ(readAll(tempPath()),
              "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST_F(CsvTest, CellRoundTripsDoubles)
{
    EXPECT_EQ(CsvWriter::cell(1.0), "1");
    const std::string s = CsvWriter::cell(0.1234567891);
    EXPECT_NEAR(std::stod(s), 0.1234567891, 1e-9);
}

TEST_F(CsvTest, FatalOnUnwritablePath)
{
    EXPECT_DEATH(CsvWriter("/nonexistent_dir_xyz/file.csv"),
                 "cannot open");
}

} // namespace
} // namespace vaesa
