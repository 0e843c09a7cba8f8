#include "vaesa/dataset_io.hh"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/atomic_io.hh"

namespace vaesa {

namespace {

/** Rebuild a LayerShape from the 8 stored dimensions. */
LayerShape
layerFromFields(const std::string &name,
                const std::array<std::int64_t, 8> &dims)
{
    LayerShape layer;
    layer.name = name;
    layer.r = dims[0];
    layer.s = dims[1];
    layer.p = dims[2];
    layer.q = dims[3];
    layer.c = dims[4];
    layer.k = dims[5];
    layer.strideW = dims[6];
    layer.strideH = dims[7];
    return layer;
}

/** Exception-free integer cell parse (whole cell must be a number). */
bool
parseI64(const std::string &cell, std::int64_t &out)
{
    if (cell.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoll(cell.c_str(), &end, 10);
    // strtoll saturates on overflow; a 20-digit cell must be a load
    // error, not a "valid" 9.2e18 dimension.
    if (errno == ERANGE)
        return false;
    return end == cell.c_str() + cell.size();
}

/** Exception-free double cell parse (whole cell must be a number). */
bool
parseF64(const std::string &cell, double &out)
{
    if (cell.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(cell.c_str(), &end);
    return end == cell.c_str() + cell.size();
}

LoadError
rowError(const std::string &path, std::size_t line,
         const std::string &message)
{
    return makeLoadError(LoadError::Kind::Malformed, path, line,
                         message);
}

} // namespace

Expected<Dataset>
loadDatasetCsv(const std::string &path)
{
    Expected<std::string> bytes = readFileBytes(path);
    if (!bytes)
        return bytes.error();

    std::vector<LayerShape> pool;
    std::vector<DataSample> samples;

    std::istringstream in(bytes.value());
    std::string line;
    std::getline(in, line); // header
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream iss(line);
        std::vector<std::string> cells;
        std::string cell;
        while (std::getline(iss, cell, ','))
            cells.push_back(cell);
        if (cells.size() != 10)
            return rowError(path, line_no,
                            "malformed row: expected 10 cells, got " +
                                std::to_string(cells.size()));
        if (cells[0] == "layer") {
            std::array<std::int64_t, 8> dims{};
            for (int i = 0; i < 8; ++i)
                if (!parseI64(cells[2 + i], dims[i]))
                    return rowError(path, line_no,
                                    "bad layer dimension '" +
                                        cells[2 + i] + "'");
            const LayerShape parsed =
                layerFromFields(cells[1], dims);
            // Hostile-input boundary: the pool feeds straight into
            // cost-model arithmetic, so reject rows the parser-side
            // loaders would reject too.
            if (!parsed.isSane())
                return rowError(path, line_no,
                                "non-positive layer dimension");
            if (const auto oversize = parsed.oversizeReason())
                return rowError(path, line_no, *oversize);
            pool.push_back(parsed);
        } else if (cells[0] == "sample") {
            DataSample s;
            std::int64_t layer_index = 0;
            std::array<std::int64_t, 6> config{};
            if (!parseI64(cells[1], layer_index) || layer_index < 0)
                return rowError(path, line_no,
                                "bad layer index '" + cells[1] + "'");
            for (int i = 0; i < 6; ++i)
                if (!parseI64(cells[2 + i], config[i]))
                    return rowError(path, line_no,
                                    "bad configuration value '" +
                                        cells[2 + i] + "'");
            if (!parseF64(cells[8], s.logLatency) ||
                !parseF64(cells[9], s.logEnergy))
                return rowError(path, line_no, "bad label value");
            s.layerIndex = static_cast<std::size_t>(layer_index);
            s.config.numPes = config[0];
            s.config.numMacs = config[1];
            s.config.accumBufBytes = config[2];
            s.config.weightBufBytes = config[3];
            s.config.inputBufBytes = config[4];
            s.config.globalBufBytes = config[5];
            samples.push_back(std::move(s));
        } else {
            return rowError(path, line_no,
                            "unknown row kind '" + cells[0] + "'");
        }
    }
    if (pool.empty() || samples.empty())
        return makeLoadError(LoadError::Kind::Malformed, path, 0,
                             "contains no layers or no samples");

    // Recompute the feature vectors from the loaded configs/layers.
    for (DataSample &s : samples) {
        if (s.layerIndex >= pool.size())
            return makeLoadError(
                LoadError::Kind::Malformed, path, 0,
                "sample references layer " +
                    std::to_string(s.layerIndex) + " of " +
                    std::to_string(pool.size()));
        s.hwFeatures = designSpace().toFeatures(s.config);
        s.layerFeatures = pool[s.layerIndex].toFeatures();
    }
    return Dataset(std::move(samples), std::move(pool));
}

} // namespace vaesa
