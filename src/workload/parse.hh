/**
 * @file
 * Text parsing of layer shapes so users can optimize custom networks
 * without recompiling. The format is the paper's Table IV 8-column
 * layout, one layer per line:
 *
 *   # comment lines and blank lines are ignored
 *   [name] R S P Q C K strideW strideH
 *
 * The leading name is optional; unnamed layers get "custom.layerN".
 */

#ifndef VAESA_WORKLOAD_PARSE_HH
#define VAESA_WORKLOAD_PARSE_HH

#include <optional>
#include <string>
#include <vector>

#include "util/load_error.hh"
#include "workload/layer.hh"

namespace vaesa {

/**
 * Parse one layer line.
 * @param line text in the format above.
 * @param default_name name to use when the line has none.
 * @param error out (optional): set to a description when the line is
 *        malformed; untouched otherwise.
 * @return the layer, or nullopt for blank/comment/malformed lines
 *         (malformed sets *error when given).
 */
std::optional<LayerShape> parseLayerLine(const std::string &line,
                                         const std::string
                                             &default_name,
                                         std::string *error = nullptr);

/**
 * Parse a whole file of layer lines.
 * @return the layers, or a LoadError carrying the file name and the
 *         1-based line number of the offending line (OpenFailed when
 *         the file cannot be read, Malformed on bad content or zero
 *         layers).
 */
Expected<std::vector<LayerShape>>
parseLayerFile(const std::string &path);

} // namespace vaesa

#endif // VAESA_WORKLOAD_PARSE_HH
