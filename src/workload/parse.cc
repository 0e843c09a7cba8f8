#include "workload/parse.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/atomic_io.hh"

namespace vaesa {

namespace {

/** Report a malformed line without aborting the process. */
std::optional<LayerShape>
lineError(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return std::nullopt;
}

/**
 * True when a token is shaped like an integer dimension, INCLUDING a
 * leading sign. A bare isdigit() probe on the first character used to
 * classify "-5" or "+3" as the optional layer *name*, silently
 * shifting all eight dimensions one column right; signed tokens must
 * instead reach the dimension parser, where a negative value gets the
 * proper non-positive-dimension rejection.
 */
bool
looksNumeric(const std::string &token)
{
    std::size_t at = 0;
    if (token[0] == '-' || token[0] == '+')
        at = 1;
    return at < token.size() &&
           std::isdigit(static_cast<unsigned char>(token[at]));
}

} // namespace

std::optional<LayerShape>
parseLayerLine(const std::string &line, const std::string &default_name,
               std::string *error)
{
    // Strip comments and whitespace-only lines.
    std::string body = line;
    const std::size_t hash = body.find('#');
    if (hash != std::string::npos)
        body.erase(hash);
    std::istringstream iss(body);

    std::vector<std::string> tokens;
    std::string token;
    while (iss >> token)
        tokens.push_back(token);
    if (tokens.empty())
        return std::nullopt;

    std::string name = default_name;
    std::size_t first = 0;
    // A leading non-numeric token is the layer name; signed numbers
    // ("-5", "+3") are dimensions, not names (see looksNumeric).
    if (!looksNumeric(tokens[0])) {
        name = tokens[0];
        first = 1;
    }
    if (tokens.size() - first != 8)
        return lineError(
            error, "expected 8 dimensions (R S P Q C K strideW "
                   "strideH), got " +
                       std::to_string(tokens.size() - first) + " in '" +
                       line + "'");

    std::int64_t dims[8];
    for (int i = 0; i < 8; ++i) {
        const std::string &t = tokens[first + i];
        char *end = nullptr;
        errno = 0;
        dims[i] = std::strtoll(t.c_str(), &end, 10);
        if (end == t.c_str() || *end)
            return lineError(error, "'" + t +
                                        "' is not an integer in '" +
                                        line + "'");
        // strtoll saturates to INT64_MIN/MAX on overflow; without
        // the errno check a 20-digit dimension silently became a
        // "valid" 9.2e18 layer.
        if (errno == ERANGE)
            return lineError(error,
                             "'" + t + "' overflows int64 in '" +
                                 line + "'");
    }

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
    if (!layer.isSane())
        return lineError(error,
                         "non-positive dimension in '" + line + "'");
    if (const auto oversize = layer.oversizeReason())
        return lineError(error, *oversize + " in '" + line + "'");
    return layer;
}

Expected<std::vector<LayerShape>>
parseLayerFile(const std::string &path)
{
    Expected<std::string> bytes = readFileBytes(path);
    if (!bytes)
        return bytes.error();

    std::vector<LayerShape> layers;
    std::istringstream in(bytes.value());
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        std::string error;
        const auto layer = parseLayerLine(
            line, "custom.layer" + std::to_string(layers.size() + 1),
            &error);
        if (layer) {
            layers.push_back(*layer);
        } else if (!error.empty()) {
            return makeLoadError(LoadError::Kind::Malformed, path,
                                 line_no, error);
        }
    }
    if (layers.empty())
        return makeLoadError(LoadError::Kind::Malformed, path, 0,
                             "no layers found");
    return layers;
}

} // namespace vaesa
