/**
 * @file
 * Test helper: write a layer back as one line of the 8-column layer
 * format parseLayerLine() reads (name first), so the parser tests can
 * round-trip any in-bounds layer through it.
 */

#ifndef VAESA_TESTS_COMMON_LAYER_LINE_HH
#define VAESA_TESTS_COMMON_LAYER_LINE_HH

#include <sstream>
#include <string>

#include "workload/layer.hh"

namespace vaesa::testing {

/** "name R S P Q C K strideW strideH". */
inline std::string
formatLayerLine(const LayerShape &layer)
{
    std::ostringstream oss;
    oss << layer.name << " " << layer.r << " " << layer.s << " "
        << layer.p << " " << layer.q << " " << layer.c << " "
        << layer.k << " " << layer.strideW << " " << layer.strideH;
    return oss.str();
}

} // namespace vaesa::testing

#endif // VAESA_TESTS_COMMON_LAYER_LINE_HH
