/**
 * @file
 * Loop-nest mapping of a layer onto the Simba-like accelerator.
 *
 * The machine has a three-level storage hierarchy:
 *   DRAM -> shared global buffer -> per-PE buffers -> MAC registers.
 * A mapping fixes (a) the spatial work split -- output channels K
 * across PEs, input channels C across the MAC lanes inside a PE -- and
 * (b) the temporal tile sizes resident in the per-PE buffers and in
 * the global buffer. Tile counts use ceiling division, so tile sizes
 * need not divide the layer dimensions; the quantization loss shows up
 * as under-utilization, as in Timeloop.
 *
 * Fixed loop order (a CoSA-style convention, documented in DESIGN.md):
 * at every temporal level the nest is [P, Q outermost][K][C innermost].
 * Consequences used by the cost model:
 *   - weights live in the per-PE weight buffer and are re-fetched from
 *     DRAM once per outer (P, Q) tile iteration;
 *   - inputs live in the global buffer and are re-fetched from DRAM
 *     once per DRAM-level K iteration;
 *   - partial sums never spill: the accumulation buffer holds one
 *     (P, Q, K) psum tile across the entire C reduction, and each
 *     output word is written to DRAM exactly once.
 */

#ifndef VAESA_COSTMODEL_MAPPING_HH
#define VAESA_COSTMODEL_MAPPING_HH

#include <array>
#include <cstdint>
#include <string>

#include "workload/layer.hh"

namespace vaesa {

/** Loop dimensions of a convolution in Table IV order. */
enum Dim : int {
    DimR = 0,
    DimS = 1,
    DimP = 2,
    DimQ = 3,
    DimC = 4,
    DimK = 5,
};

/** Number of loop dimensions. */
constexpr int numDims = 6;

/** Per-dimension extents of one layer as an array. */
std::array<std::int64_t, numDims> layerDims(const LayerShape &layer);

/** Input words a tile with extents t reads, halo included. Each
 *  factor is widened to double before multiplying (see Mapping). */
inline double
haloInputWords(const std::array<std::int64_t, numDims> &t,
               const LayerShape &layer)
{
    const auto d = [](std::int64_t v) { return static_cast<double>(v); };
    const double in_w = d(t[DimP] - 1) * d(layer.strideW) + d(t[DimR]);
    const double in_h = d(t[DimQ] - 1) * d(layer.strideH) + d(t[DimS]);
    return in_w * in_h * d(t[DimC]);
}

/**
 * A complete mapping: spatial split plus per-level temporal tiles.
 * Invariants (checked by CostModel::evaluate):
 *   - 1 <= spatialK <= #PEs, 1 <= spatialC <= lanes/PE;
 *   - 1 <= tilePe[d] <= tileGb[d] <= dim[d] for d in {R,S,P,Q,C};
 *   - for K the global-buffer tile covers the whole array:
 *     spatialK * tilePe[K] <= tileGb[K] <= K (after ceiling padding).
 */
struct Mapping
{
    /** Number of PEs used; K is split spatially across them. */
    std::int64_t spatialK = 1;

    /** MAC lanes used per PE; C is split spatially across them. */
    std::int64_t spatialC = 1;

    /** Temporal tile resident in one PE's buffers. tilePe[DimC] counts
     *  all lanes' channels (the lanes reduce into one psum). */
    std::array<std::int64_t, numDims> tilePe{1, 1, 1, 1, 1, 1};

    /** Array-level tile resident in the global buffer. tileGb[DimK]
     *  covers all PEs (>= spatialK * tilePe[DimK]). */
    std::array<std::int64_t, numDims> tileGb{1, 1, 1, 1, 1, 1};

    /** Tile the whole PE array covers concurrently in dimension d. */
    std::int64_t arrayTilePe(int dim) const;

    // Word counts are products of up to four tile extents. At the
    // corners of the design space (and for adversarial mappings fed
    // to the fit check) the int64 product overflows, wraps negative,
    // and makes an impossibly large tile "fit" its buffer — so every
    // factor is widened to double BEFORE multiplying. Each factor is
    // far below 2^53, so the result is exact whenever it matters and
    // merely saturates gracefully when it would not fit an int64 at
    // all. Callers consume these in double arithmetic anyway.

    /** Words of one PE's weight tile: r*s*c*k. */
    double weightTileWords() const;

    /** Words of one PE's input tile, halo included. */
    double inputTileWords(const LayerShape &layer) const;

    /** Partial sums in one PE's accumulation buffer: p*q*k. */
    double psumTileWords() const;

    /** Words of the global buffer's input tile, halo included. */
    double inputGbTileWords(const LayerShape &layer) const;

    /** Words of the global buffer's output tile: p*q*k. */
    double outputGbTileWords() const;

    /** One-line description for logs. */
    std::string describe() const;
};

/** Name of a dimension ("R", "S", ...). */
const char *dimName(int dim);

} // namespace vaesa

#endif // VAESA_COSTMODEL_MAPPING_HH
