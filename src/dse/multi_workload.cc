#include "dse/multi_workload.hh"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "util/atomic_io.hh"

namespace vaesa {

Expected<TrafficMix>
makeTrafficMix(
    const std::vector<std::pair<std::string, double>> &namedWeights)
{
    TrafficMix mix;
    for (const auto &[name, weight] : namedWeights) {
        if (!(weight > 0.0) || !std::isfinite(weight))
            return makeLoadError(LoadError::Kind::Malformed, "", 0,
                                 "weight for '" + name +
                                     "' must be positive and finite");
        for (const TrafficEntry &e : mix.entries)
            if (e.workload.name == name)
                return makeLoadError(LoadError::Kind::Malformed, "",
                                     0,
                                     "duplicate workload '" + name +
                                         "' in mix");
        std::optional<Workload> w = tryWorkloadByName(name);
        if (!w)
            return makeLoadError(LoadError::Kind::Malformed, "", 0,
                                 "unknown workload '" + name + "'");
        mix.entries.push_back({*std::move(w), weight});
    }
    if (mix.entries.empty())
        return makeLoadError(LoadError::Kind::Malformed, "", 0,
                             "empty traffic mix");
    return mix;
}

Expected<TrafficMix>
parseTrafficMixFile(const std::string &path)
{
    Expected<std::string> bytes = readFileBytes(path);
    if (!bytes)
        return bytes.error();

    std::vector<std::pair<std::string, double>> namedWeights;
    std::istringstream in(bytes.value());
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string name;
        if (!(fields >> name))
            continue;
        std::string weightToken;
        if (!(fields >> weightToken))
            return makeLoadError(LoadError::Kind::Malformed, path,
                                 line_no,
                                 "expected '<workload> <weight>', got "
                                 "'" + line + "'");
        std::string extra;
        if (fields >> extra)
            return makeLoadError(LoadError::Kind::Malformed, path,
                                 line_no,
                                 "trailing token '" + extra + "'");
        char *end = nullptr;
        const double weight =
            std::strtod(weightToken.c_str(), &end);
        if (end == weightToken.c_str() || *end)
            return makeLoadError(LoadError::Kind::Malformed, path,
                                 line_no,
                                 "'" + weightToken +
                                     "' is not a number");
        namedWeights.emplace_back(name, weight);
    }

    Expected<TrafficMix> mix = makeTrafficMix(namedWeights);
    if (!mix) {
        // Re-home the (file-less) builder error onto this file.
        LoadError err = mix.error();
        err.file = path;
        return err;
    }
    return mix;
}

std::vector<LayerShape>
mixLayerPool(const TrafficMix &mix, std::vector<double> *weights_out)
{
    std::vector<LayerShape> pool;
    std::vector<double> weights;
    for (const TrafficEntry &entry : mix.entries) {
        for (std::size_t i = 0; i < entry.workload.layers.size();
             ++i) {
            const LayerShape &layer = entry.workload.layers[i];
            const double w =
                entry.weight *
                static_cast<double>(entry.workload.countOf(i));
            bool merged = false;
            for (std::size_t j = 0; j < pool.size(); ++j) {
                if (pool[j].sameShape(layer)) {
                    weights[j] += w;
                    merged = true;
                    break;
                }
            }
            if (!merged) {
                pool.push_back(layer);
                weights.push_back(w);
            }
        }
    }
    if (weights_out)
        *weights_out = std::move(weights);
    return pool;
}

} // namespace vaesa
