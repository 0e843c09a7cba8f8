#include "studies/csv.hh"

#include <cstdio>

#include "util/logging.hh"

namespace vaesa {

CsvWriter::CsvWriter(const std::string &path)
    : out_(path), path_(path)
{
    if (!out_)
        fatal("cannot open CSV output file '", path, "'");
}

void
CsvWriter::header(const std::vector<std::string> &names)
{
    writeRow(names);
}

void
CsvWriter::row(const std::vector<std::string> &cells)
{
    writeRow(cells);
}

void
CsvWriter::rowValues(const std::vector<double> &values)
{
    std::vector<std::string> cells;
    cells.reserve(values.size());
    for (double v : values)
        cells.push_back(cell(v));
    writeRow(cells);
}

std::string
CsvWriter::cell(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    return buf;
}

std::string
CsvWriter::formatRow(const std::vector<std::string> &cells)
{
    std::string out;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i)
            out += ',';
        const std::string &c = cells[i];
        if (c.find_first_of(",\"\n") != std::string::npos) {
            out += '"';
            for (char ch : c) {
                if (ch == '"')
                    out += '"';
                out += ch;
            }
            out += '"';
        } else {
            out += c;
        }
    }
    out += '\n';
    return out;
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    out_ << formatRow(cells);
    if (!out_)
        fatal("failed writing CSV file '", path_, "'");
}

} // namespace vaesa
