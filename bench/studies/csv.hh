/**
 * @file
 * Minimal CSV emission for experiment artifacts. Every bench binary can
 * drop its table/series to a CSV next to stdout so figures can be
 * re-plotted outside the harness.
 */

#ifndef VAESA_BENCH_STUDIES_CSV_HH
#define VAESA_BENCH_STUDIES_CSV_HH

#include <fstream>
#include <string>
#include <vector>

namespace vaesa {

/**
 * Row-at-a-time CSV writer. Values are formatted with enough precision
 * to round-trip doubles; strings containing separators are quoted.
 */
class CsvWriter
{
  public:
    /** Open (truncate) the target file; fatal() on failure. */
    explicit CsvWriter(const std::string &path);

    /** Write the header row. */
    void header(const std::vector<std::string> &names);

    /** Write one row of already-formatted cells. */
    void row(const std::vector<std::string> &cells);

    /** Write one row of doubles. */
    void rowValues(const std::vector<double> &values);

    /** Format a double for a CSV cell. */
    static std::string cell(double value);

    /**
     * Format one row (with quoting) as a newline-terminated string,
     * for callers that assemble a CSV in memory — e.g.\ to write it
     * atomically via atomicWriteFile().
     */
    static std::string formatRow(const std::vector<std::string> &cells);

  private:
    void writeRow(const std::vector<std::string> &cells);

    std::ofstream out_;
    std::string path_;
};

} // namespace vaesa

#endif // VAESA_BENCH_STUDIES_CSV_HH
