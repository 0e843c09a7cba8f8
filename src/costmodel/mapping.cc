#include "costmodel/mapping.hh"

#include <sstream>

#include "util/logging.hh"

namespace vaesa {

std::array<std::int64_t, numDims>
layerDims(const LayerShape &layer)
{
    return {layer.r, layer.s, layer.p, layer.q, layer.c, layer.k};
}

std::int64_t
Mapping::arrayTilePe(int dim) const
{
    if (dim == DimK)
        return spatialK * tilePe[DimK];
    return tilePe[dim];
}

namespace {

/** Widen-before-multiply (see the header's overflow note). */
inline double
d(std::int64_t v)
{
    return static_cast<double>(v);
}

} // namespace

double
Mapping::weightTileWords() const
{
    return d(tilePe[DimR]) * d(tilePe[DimS]) * d(tilePe[DimC]) *
           d(tilePe[DimK]);
}

double
Mapping::inputTileWords(const LayerShape &layer) const
{
    return haloInputWords(tilePe, layer);
}

double
Mapping::psumTileWords() const
{
    return d(tilePe[DimP]) * d(tilePe[DimQ]) * d(tilePe[DimK]);
}

double
Mapping::inputGbTileWords(const LayerShape &layer) const
{
    return haloInputWords(tileGb, layer);
}

double
Mapping::outputGbTileWords() const
{
    return d(tileGb[DimP]) * d(tileGb[DimQ]) * d(tileGb[DimK]);
}

std::string
Mapping::describe() const
{
    std::ostringstream oss;
    oss << "spatialK=" << spatialK << " spatialC=" << spatialC
        << " tilePe=[";
    for (int d = 0; d < numDims; ++d)
        oss << (d ? "," : "") << tilePe[d];
    oss << "] tileGb=[";
    for (int d = 0; d < numDims; ++d)
        oss << (d ? "," : "") << tileGb[d];
    oss << "]";
    return oss.str();
}

const char *
dimName(int dim)
{
    switch (dim) {
      case DimR: return "R";
      case DimS: return "S";
      case DimP: return "P";
      case DimQ: return "Q";
      case DimC: return "C";
      case DimK: return "K";
    }
    panic("dimName: bad dimension ", dim);
}

} // namespace vaesa
