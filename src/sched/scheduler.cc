#include "sched/scheduler.hh"

#include <algorithm>
#include <array>
#include <initializer_list>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace vaesa {

namespace {

/** Tile extents of one level, as a Mapping stores them. */
using Extents = std::array<std::int64_t, numDims>;

/** Per-dimension tile counts (ceilDiv quotients) of one level. */
using TileCounts = std::array<double, numDims>;

/** Widen-before-multiply, as in Mapping, so corner-of-space tiles
 *  can't overflow into "fits". */
inline double
w(std::int64_t v)
{
    return static_cast<double>(v);
}

/** The dimensions each PE buffer's word count grows with, as bits. */
constexpr unsigned weightDims =
    1u << DimR | 1u << DimS | 1u << DimC | 1u << DimK;
constexpr unsigned inputDims =
    1u << DimR | 1u << DimS | 1u << DimP | 1u << DimQ | 1u << DimC;
constexpr unsigned psumDims = 1u << DimP | 1u << DimQ | 1u << DimK;

/** True when per-PE tile t, with in_words input words, fits the PE
 *  buffers whose word count grows with a dimension in @p changed. */
inline bool
peFits(const CostModel &model, const AcceleratorConfig &arch,
       unsigned changed, const Extents &t, double in_words)
{
    const double bpw = model.params().bytesPerWord;
    if ((changed & weightDims) &&
        w(t[DimR]) * w(t[DimS]) * w(t[DimC]) * w(t[DimK]) * bpw >
            w(arch.weightBufBytes))
        return false;
    if ((changed & inputDims) && in_words * bpw > w(arch.inputBufBytes))
        return false;
    if ((changed & psumDims) &&
        w(t[DimP]) * w(t[DimQ]) * w(t[DimK]) * model.params().bytesPerPsum >
            w(arch.accumBufBytes))
        return false;
    return true;
}

/** True when the global-buffer tile t, whose input tile holds
 *  in_words words, fits the global buffer with its output tile. */
inline bool
gbFits(const CostModel &model, const AcceleratorConfig &arch,
       const Extents &t, double in_words)
{
    const double words = in_words + w(t[DimP]) * w(t[DimQ]) * w(t[DimK]);
    return words * model.params().bytesPerWord <= w(arch.globalBufBytes);
}

/** True when the per-PE tile of m fits every PE buffer. */
bool
peTileFits(const CostModel &model, const AcceleratorConfig &arch,
           const LayerShape &layer, const Mapping &m)
{
    return peFits(model, arch, ~0u, m.tilePe, haloInputWords(m.tilePe, layer));
}

/** True when the global-buffer tile of m fits the global buffer. */
bool
gbTileFits(const CostModel &model, const AcceleratorConfig &arch,
           const LayerShape &layer, const Mapping &m)
{
    return gbFits(model, arch, m.tileGb, haloInputWords(m.tileGb, layer));
}

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
 * repeatedly take the doubling of tile[d], d in @p order and capped at
 * cap[d], that fits and most reduces the level's traffic proxy.
 * count(d, v) is the tile count in d at extent v. tryGrow(changed, t,
 * n, &score) checks the buffers whose word count grows with a
 * dimension in `changed`; if tile t (counts n) fits them it sets its
 * proxy score and returns true. The tile fits at the start and after
 * every accepted step, so a candidate checks only its own dimension's
 * buffers. Tiles only grow and no word count falls as an extent grows,
 * so a dimension at its cap or whose doubling does not fit is dropped
 * for good, keeping @p order (ties go to the first dimension).
 */
template <class Count, class TryGrow>
void
growGreedy(Extents &tile, const Extents &cap,
           std::initializer_list<int> order, const Count &count,
           const TryGrow &tryGrow)
{
    TileCounts n{};
    for (int d = 0; d < numDims; ++d)
        n[d] = count(d, tile[d]);
    double score = 0.0;
    tryGrow(0u, tile, n, &score);
    std::array<int, numDims> live{};
    std::copy(order.begin(), order.end(), live.begin());
    std::size_t num_live = order.size();
    while (true) {
        double best_score = score;
        int best_dim = -1;
        std::int64_t best_value = 0;
        double best_count = 0.0;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < num_live; ++i) {
            const int d = live[i];
            if (tile[d] >= cap[d])
                continue;
            // Score the doubling in place, then restore tile and n.
            const std::int64_t extent = tile[d];
            const double extent_count = n[d];
            const std::int64_t value = std::min(cap[d], extent * 2);
            tile[d] = value;
            const double grown_count = n[d] = count(d, value);
            double grown_score = 0.0;
            const bool fits = tryGrow(1u << d, tile, n, &grown_score);
            tile[d] = extent;
            n[d] = extent_count;
            if (!fits)
                continue;
            live[kept++] = d;
            if (grown_score < best_score) {
                best_score = grown_score;
                best_dim = d;
                best_value = value;
                best_count = grown_count;
            }
        }
        num_live = kept;
        if (best_dim < 0)
            return;
        tile[best_dim] = best_value;
        n[best_dim] = best_count;
        score = best_score;
    }
}

} // namespace

Scheduler::Scheduler(const CostModel &model)
    : model_(model)
{
}

std::optional<Mapping>
Scheduler::schedule(const AcceleratorConfig &arch,
                    const LayerShape &layer) const
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
    while (!peTileFits(model_, arch, layer, m) && m.spatialC > 1) {
        m.spatialC = std::max<std::int64_t>(1, m.spatialC / 2);
        m.tilePe[DimC] = m.spatialC;
    }
    while (!peTileFits(model_, arch, layer, m) &&
           (m.tilePe[DimR] > 1 || m.tilePe[DimS] > 1)) {
        if (m.tilePe[DimR] >= m.tilePe[DimS])
            m.tilePe[DimR] = std::max<std::int64_t>(
                1, m.tilePe[DimR] / 2);
        else
            m.tilePe[DimS] = std::max<std::int64_t>(
                1, m.tilePe[DimS] / 2);
    }
    if (!peTileFits(model_, arch, layer, m))
        return std::nullopt;

    // Greedy per-PE tile growth, ranked by a DRAM-traffic proxy:
    // weight re-fetches scale with the outer (P, Q) iteration count;
    // input re-reads from the global buffer scale with the number of
    // array-level tiles (and the per-tile halo overhead).
    Extents pe_cap = dims;
    pe_cap[DimK] = ceilDiv(dims[DimK], m.spatialK);
    const double weight_words = layer.weightWords();
    const double output_words = layer.outputWords();
    growGreedy(
        m.tilePe, pe_cap, {DimR, DimS, DimP, DimQ, DimC, DimK},
        [&](int d, std::int64_t v) {
            const std::int64_t array_tile =
                d == DimK ? m.spatialK * v : v;
            return static_cast<double>(ceilDiv(dims[d], array_tile));
        },
        [&](unsigned changed, const Extents &t, const TileCounts &n,
            double *score) {
            const double in_words = haloInputWords(t, layer);
            if (!peFits(model_, arch, changed, t, in_words))
                return false;
            *score = weight_words * (n[DimP] * n[DimQ]) +
                     product(n) * in_words + output_words;
            return true;
        });

    // Global-buffer tile starts at the concurrent array tile and grows
    // under the global-buffer capacity, minimizing DRAM input traffic.
    for (int d = 0; d < numDims; ++d)
        m.tileGb[d] = std::min(dims[d], m.arrayTilePe(d));
    if (!gbTileFits(model_, arch, layer, m)) {
        // Shrink the global-buffer tile toward the per-PE tile in
        // C/Q/P; for K the buffer must cover the concurrent array
        // tile, so shrink the K split itself (temporal first, then
        // spatial, giving up PE parallelism last).
        for (int d : {DimC, DimQ, DimP}) {
            while (!gbTileFits(model_, arch, layer, m) &&
                   m.tileGb[d] > m.tilePe[d]) {
                m.tileGb[d] = std::max(m.tilePe[d], m.tileGb[d] / 2);
            }
        }
        while (!gbTileFits(model_, arch, layer, m) &&
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
            while (!gbTileFits(model_, arch, layer, m) &&
                   m.tilePe[d] > 1) {
                m.tilePe[d] = std::max<std::int64_t>(
                    1, m.tilePe[d] / 2);
                if (d == DimC) {
                    m.spatialC = std::min(m.spatialC, m.tilePe[DimC]);
                }
                m.tileGb[d] = std::min(dims[d], m.tilePe[d]);
            }
        }
        if (!gbTileFits(model_, arch, layer, m))
            return std::nullopt;
    }
    // Global-buffer growth, ranked by DRAM input traffic.
    growGreedy(
        m.tileGb, dims, {DimP, DimQ, DimC, DimK},
        [&](int d, std::int64_t v) {
            return static_cast<double>(ceilDiv(dims[d], v));
        },
        [&](unsigned changed, const Extents &t, const TileCounts &n,
            double *score) {
            const double in_words = haloInputWords(t, layer);
            if (changed && !gbFits(model_, arch, t, in_words))
                return false;
            *score = product(n) * in_words;
            return true;
        });

    std::string reason;
    if (!model_.checkMapping(arch, layer, m, &reason)) {
        debugLog("scheduler produced an illegal mapping (", reason,
                 ") for ", layer.describe(), " on ", arch.describe());
        return std::nullopt;
    }
    return m;
}

} // namespace vaesa
