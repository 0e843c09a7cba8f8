#include "reference_scheduler.hh"

#include <algorithm>
#include <array>
#include <initializer_list>

#include "arch/design_space.hh"
#include "util/numeric.hh"

namespace vaesa::reference {

namespace {

/** True when the per-PE tile of m fits every PE buffer. */
bool
peTileFits(const CostModel &model, const AcceleratorConfig &arch,
           const LayerShape &layer, const Mapping &m)
{
    // Word counts are already double (widened before multiplying in
    // Mapping, so corner-of-space tiles can't overflow into "fits").
    const double bpw = model.params().bytesPerWord;
    if (m.weightTileWords() * bpw >
        static_cast<double>(arch.weightBufBytes))
        return false;
    if (m.inputTileWords(layer) * bpw >
        static_cast<double>(arch.inputBufBytes))
        return false;
    if (m.psumTileWords() * model.params().bytesPerPsum >
        static_cast<double>(arch.accumBufBytes))
        return false;
    return true;
}

/** True when the global-buffer tile of m fits the global buffer. */
bool
gbTileFits(const CostModel &model, const AcceleratorConfig &arch,
           const LayerShape &layer, const Mapping &m)
{
    const double words =
        m.inputGbTileWords(layer) + m.outputGbTileWords();
    return words * model.params().bytesPerWord <=
           static_cast<double>(arch.globalBufBytes);
}

/** Per-dimension tile counts (ceilDiv quotients) of one level. */
using TileCounts = std::array<double, numDims>;

/** Product of the tile counts, multiplied in dimension order. */
double
product(const TileCounts &n)
{
    double p = 1.0;
    for (const double x : n)
        p *= x;
    return p;
}

/**
 * Greedy tile growth shared by the per-PE and global-buffer levels:
 * repeatedly take the feasible doubling of (m.*level)[d], d in
 * @p order and capped at cap(d), that most reduces proxy(m, counts).
 * Growth is monotone and bounded, so the loop terminates. The proxy
 * sees the level's tile counts cached in `counts` (count(m, d) per
 * dimension), so a candidate recomputes only the count of the
 * dimension it grows, and the accepted step's score carries over.
 */
template <class Cap, class Fits, class Count, class Proxy>
void
growGreedy(Mapping &m, std::array<std::int64_t, numDims> Mapping::*level,
           std::initializer_list<int> order, const Cap &cap,
           const Fits &fits, const Count &count, const Proxy &proxy)
{
    TileCounts counts;
    for (int d = 0; d < numDims; ++d)
        counts[d] = count(m, d);
    double score = proxy(m, counts);
    while (true) {
        double best_score = score;
        int best_dim = -1;
        std::int64_t best_value = 0;
        double best_count = 0.0;
        for (const int d : order) {
            if ((m.*level)[d] >= cap(d))
                continue;
            Mapping grown = m;
            (grown.*level)[d] = std::min(cap(d), (m.*level)[d] * 2);
            if (!fits(grown))
                continue;
            TileCounts grown_counts = counts;
            grown_counts[d] = count(grown, d);
            const double grown_score = proxy(grown, grown_counts);
            if (grown_score < best_score) {
                best_score = grown_score;
                best_dim = d;
                best_value = (grown.*level)[d];
                best_count = grown_counts[d];
            }
        }
        if (best_dim < 0)
            return;
        (m.*level)[best_dim] = best_value;
        counts[best_dim] = best_count;
        score = best_score;
    }
}

} // namespace

std::optional<Mapping>
schedule(const AcceleratorConfig &arch, const LayerShape &layer,
         const CostModel &model)
{
    if (!designSpace().isValid(arch) || !layer.isSane())
        return std::nullopt;

    const auto dims = layerDims(layer);
    Mapping m;
    m.spatialK = std::min<std::int64_t>(arch.numPes, dims[DimK]);
    m.spatialC = std::min<std::int64_t>(arch.lanesPerPe(), dims[DimC]);
    m.tilePe = {dims[DimR], dims[DimS], 1, 1, m.spatialC, 1};

    // Shrink the spatial C split, then the filter window, until the
    // minimal per-PE tile fits. A fully minimal tile is 1 word per
    // buffer; if even that fails the architecture cannot map the layer.
    while (!peTileFits(model, arch, layer, m) && m.spatialC > 1) {
        m.spatialC = std::max<std::int64_t>(1, m.spatialC / 2);
        m.tilePe[DimC] = m.spatialC;
    }
    while (!peTileFits(model, arch, layer, m) &&
           (m.tilePe[DimR] > 1 || m.tilePe[DimS] > 1)) {
        if (m.tilePe[DimR] >= m.tilePe[DimS])
            m.tilePe[DimR] = std::max<std::int64_t>(
                1, m.tilePe[DimR] / 2);
        else
            m.tilePe[DimS] = std::max<std::int64_t>(
                1, m.tilePe[DimS] / 2);
    }
    if (!peTileFits(model, arch, layer, m))
        return std::nullopt;

    // Greedy per-PE tile growth, ranked by a DRAM-traffic proxy:
    // weight re-fetches scale with the outer (P, Q) iteration count;
    // input re-reads from the global buffer scale with the number of
    // array-level tiles (and the per-tile halo overhead).
    const std::int64_t max_k_tile = ceilDiv(dims[DimK], m.spatialK);
    const double weight_words = layer.weightWords();
    const double output_words = layer.outputWords();
    growGreedy(
        m, &Mapping::tilePe, {DimR, DimS, DimP, DimQ, DimC, DimK},
        [&](int d) { return d == DimK ? max_k_tile : dims[d]; },
        [&](const Mapping &t) {
            return peTileFits(model, arch, layer, t);
        },
        [&](const Mapping &t, int d) {
            return static_cast<double>(ceilDiv(dims[d], t.arrayTilePe(d)));
        },
        [&](const Mapping &t, const TileCounts &n) {
            const double weight_traffic =
                weight_words * (n[DimP] * n[DimQ]);
            return weight_traffic +
                   product(n) * t.inputTileWords(layer) + output_words;
        });

    // Global-buffer tile starts at the concurrent array tile and grows
    // under the global-buffer capacity, minimizing DRAM input traffic.
    for (int d = 0; d < numDims; ++d)
        m.tileGb[d] = std::min(dims[d], m.arrayTilePe(d));
    if (!gbTileFits(model, arch, layer, m)) {
        // Shrink the global-buffer tile toward the per-PE tile in
        // C/Q/P; for K the buffer must cover the concurrent array
        // tile, so shrink the K split itself (temporal first, then
        // spatial, giving up PE parallelism last).
        for (int d : {DimC, DimQ, DimP}) {
            while (!gbTileFits(model, arch, layer, m) &&
                   m.tileGb[d] > m.tilePe[d]) {
                m.tileGb[d] = std::max(m.tilePe[d], m.tileGb[d] / 2);
            }
        }
        while (!gbTileFits(model, arch, layer, m) &&
               (m.spatialK > 1 || m.tilePe[DimK] > 1)) {
            if (m.tilePe[DimK] > 1)
                m.tilePe[DimK] = std::max<std::int64_t>(
                    1, m.tilePe[DimK] / 2);
            else
                m.spatialK = std::max<std::int64_t>(
                    1, m.spatialK / 2);
            m.tileGb[DimK] =
                std::min(dims[DimK], m.arrayTilePe(DimK));
        }
        // Last resort: a global buffer smaller than the per-PE tile.
        // Shrink the per-PE tile itself (giving up PE-buffer reuse)
        // so the tile can stream through the small global buffer.
        for (int d : {DimC, DimQ, DimP, DimS, DimR}) {
            while (!gbTileFits(model, arch, layer, m) &&
                   m.tilePe[d] > 1) {
                m.tilePe[d] = std::max<std::int64_t>(
                    1, m.tilePe[d] / 2);
                if (d == DimC) {
                    m.spatialC = std::min(m.spatialC, m.tilePe[DimC]);
                }
                m.tileGb[d] = std::min(dims[d], m.tilePe[d]);
            }
        }
        if (!gbTileFits(model, arch, layer, m))
            return std::nullopt;
    }
    // Global-buffer growth, ranked by DRAM input traffic.
    growGreedy(
        m, &Mapping::tileGb, {DimP, DimQ, DimC, DimK},
        [&](int d) { return dims[d]; },
        [&](const Mapping &t) {
            return gbTileFits(model, arch, layer, t);
        },
        [&](const Mapping &t, int d) {
            return static_cast<double>(ceilDiv(dims[d], t.tileGb[d]));
        },
        [&](const Mapping &t, const TileCounts &n) {
            return product(n) * t.inputGbTileWords(layer);
        });

    if (!model.checkMapping(arch, layer, m))
        return std::nullopt;
    return m;
}

} // namespace vaesa::reference
