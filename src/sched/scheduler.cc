#include "sched/scheduler.hh"

#include <algorithm>
#include <array>
#include <utility>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace vaesa {

namespace {

/** Tile extents of one level, as a Mapping stores them. */
using Extents = std::array<std::int64_t, numDims>;

/** One double per dimension: widened extents or tile counts. */
using Doubles = std::array<double, numDims>;

/** Widen-before-multiply, as in Mapping, so corner-of-space tiles
 *  can't overflow into "fits". */
inline double
w(std::int64_t v)
{
    return static_cast<double>(v);
}

/** The bit of dimension d in a set of dimensions. */
constexpr unsigned
bit(int d)
{
    return 1u << d;
}

/** The set of dimensions Ds. */
template <int... Ds>
constexpr unsigned
bits(std::integer_sequence<int, Ds...>)
{
    return (bit(Ds) | ...);
}

/** The dimensions each PE buffer's word count grows with. */
constexpr unsigned weightDims = bit(DimR) | bit(DimS) | bit(DimC) | bit(DimK);
constexpr unsigned inputDims =
    bit(DimR) | bit(DimS) | bit(DimP) | bit(DimQ) | bit(DimC);
constexpr unsigned psumDims = bit(DimP) | bit(DimQ) | bit(DimK);

/** The D of the Candidate that doubles nothing: the tile as is. */
constexpr int noDim = -1;

/** The dimensions candidate D changes. */
template <int D>
constexpr unsigned changedBy = D == noDim ? 0u : bit(D);

/**
 * One level's tile during greedy growth. Beside the extents it keeps
 * them widened, their tile counts and the counts' running products,
 * all refreshed when a dimension is taken. Each live dimension also
 * keeps its doubling and that doubling's tile count, computed when it
 * became live or was last taken, so scoring a candidate divides
 * nothing. A dimension that is not live keeps its own entries there.
 */
struct Growth
{
    template <class Level>
    Growth(const Level &level, const Extents &t) : tile(t), next(t)
    {
        prefix[0] = 1.0;
        for (int d = 0; d < numDims; ++d) {
            wide[d] = w(t[d]);
            count[d] = level.count(d, t[d]);
            prefix[d + 1] = prefix[d] * count[d];
        }
        inWords = haloInputWords(t, level.layer);
        nextWide = wide;
        nextCount = count;
    }

    Extents tile;
    Doubles wide;
    Doubles count;
    /** prefix[d] = count[0] * ... * count[d - 1], in dimension order. */
    std::array<double, numDims + 1> prefix;
    /** haloInputWords(tile). */
    double inWords;
    Extents next;
    Doubles nextWide;
    Doubles nextCount;
};

/**
 * The tile of a Growth with dimension D's cached doubling taken, read
 * without writing it into the Growth. Everything it computes keeps
 * the operation order of the Mapping expression it stands for.
 */
template <int D>
struct Candidate
{
    const Growth &g;

    /** Entry j of one of g's per-dimension arrays, D's from grown. */
    template <class T>
    T
    at(const std::array<T, numDims> &now,
       const std::array<T, numDims> &grown, int j) const
    {
        if constexpr (D != noDim)
            if (j == D)
                return grown[D];
        return now[j];
    }

    std::int64_t extent(int j) const { return at(g.tile, g.next, j); }
    double widened(int j) const { return at(g.wide, g.nextWide, j); }
    double tiles(int j) const { return at(g.count, g.nextCount, j); }

    /** Product of the tile counts, multiplied in dimension order. */
    double
    product() const
    {
        if constexpr (D == noDim) {
            return g.prefix[numDims];
        } else {
            double p = g.prefix[D] * g.nextCount[D];
            for (int j = D + 1; j < numDims; ++j)
                p *= g.count[j];
            return p;
        }
    }

    /** haloInputWords of the tile, operation for operation. */
    double
    inputWords(const LayerShape &layer) const
    {
        if constexpr (D == noDim || D == DimK) {
            return g.inWords;
        } else {
            const double in_w = w(extent(DimP) - 1) * w(layer.strideW) +
                                widened(DimR);
            const double in_h = w(extent(DimQ) - 1) * w(layer.strideH) +
                                widened(DimS);
            return in_w * in_h * widened(DimC);
        }
    }
};

/** A tile as a Mapping stores it, for the shrink loops' fit checks. */
struct Whole
{
    const Extents &t;

    double widened(int j) const { return w(t[j]); }
};

/**
 * The per-PE level: its tile must fit the weight, input and psum
 * buffers, and its proxy is DRAM traffic. Weight re-fetches scale
 * with the outer (P, Q) iteration count; input re-reads from the
 * global buffer scale with the number of array-level tiles (and the
 * per-tile halo overhead).
 */
struct PeLevel
{
    using Order = std::integer_sequence<int, DimR, DimS, DimP, DimQ, DimC,
                                        DimK>;

    PeLevel(const CostModel &model, const AcceleratorConfig &arch,
            const LayerShape &layer, const Extents &dims,
            std::int64_t spatial_k)
        : layer(layer), dims(dims), spatialK(spatial_k), cap(dims),
          bpw(model.params().bytesPerWord),
          bpp(model.params().bytesPerPsum),
          weightBuf(w(arch.weightBufBytes)),
          inputBuf(w(arch.inputBufBytes)),
          accumBuf(w(arch.accumBufBytes)),
          weightWords(layer.weightWords()),
          outputWords(layer.outputWords())
    {
        cap[DimK] = ceilDiv(dims[DimK], spatial_k);
    }

    /** Tile count in dimension d at per-PE extent v. */
    double
    count(int d, std::int64_t v) const
    {
        return w(ceilDiv(dims[d], d == DimK ? spatialK * v : v));
    }

    /** True when tile t, with in_words input words, fits the PE
     *  buffers whose word count grows with a dimension in Changed. */
    template <unsigned Changed, class Tile>
    bool
    fits(const Tile &t, double in_words) const
    {
        if constexpr ((Changed & weightDims) != 0)
            if (t.widened(DimR) * t.widened(DimS) * t.widened(DimC) *
                    t.widened(DimK) * bpw >
                weightBuf)
                return false;
        if constexpr ((Changed & inputDims) != 0)
            if (in_words * bpw > inputBuf)
                return false;
        if constexpr ((Changed & psumDims) != 0)
            if (t.widened(DimP) * t.widened(DimQ) * t.widened(DimK) * bpp >
                accumBuf)
                return false;
        return true;
    }

    template <class Tile>
    double
    proxy(const Tile &t, double in_words) const
    {
        return weightWords * (t.tiles(DimP) * t.tiles(DimQ)) +
               t.product() * in_words + outputWords;
    }

    const LayerShape &layer;
    const Extents &dims;
    const std::int64_t spatialK;
    Extents cap;
    const double bpw, bpp, weightBuf, inputBuf, accumBuf;
    const double weightWords, outputWords;
};

/**
 * The global-buffer level: its input and output tiles must fit the
 * global buffer together, and its proxy is DRAM input traffic.
 */
struct GbLevel
{
    using Order = std::integer_sequence<int, DimP, DimQ, DimC, DimK>;

    GbLevel(const CostModel &model, const AcceleratorConfig &arch,
            const LayerShape &layer, const Extents &dims)
        : layer(layer), cap(dims), bpw(model.params().bytesPerWord),
          globalBuf(w(arch.globalBufBytes))
    {
    }

    /** Tile count in dimension d at extent v (the cap is the layer). */
    double
    count(int d, std::int64_t v) const
    {
        return w(ceilDiv(cap[d], v));
    }

    /** True when tile t, whose input tile holds in_words words, fits
     *  the global buffer with its output tile; any change re-checks. */
    template <unsigned Changed, class Tile>
    bool
    fits(const Tile &t, double in_words) const
    {
        if constexpr (Changed == 0)
            return true;
        const double words =
            in_words + t.widened(DimP) * t.widened(DimQ) * t.widened(DimK);
        return words * bpw <= globalBuf;
    }

    template <class Tile>
    double
    proxy(const Tile &t, double in_words) const
    {
        return t.product() * in_words;
    }

    const LayerShape &layer;
    const Extents cap;
    const double bpw, globalBuf;
};

/** True when tile t fits every buffer of the level. */
template <class Level>
bool
fitsWhole(const Level &level, const Extents &t)
{
    return level.template fits<~0u>(Whole{t},
                                    haloInputWords(t, level.layer));
}

/** A candidate that fits: its proxy score and its input words. */
struct Scored
{
    double score = 0.0;
    double inWords = 0.0;
};

/** Scores candidate D of g if it fits the buffers D touches, which
 *  is all it must re-check: the tile itself fits. */
template <int D, class Level>
bool
score(const Level &level, const Growth &g, Scored *out)
{
    const Candidate<D> c{g};
    const double in_words = c.inputWords(level.layer);
    if (!level.template fits<changedBy<D>>(c, in_words))
        return false;
    *out = {level.proxy(c, in_words), in_words};
    return true;
}

/** Caches the doubling of dimension d of g and its tile count. */
template <class Level>
void
cacheDoubling(const Level &level, Growth &g, int d)
{
    g.next[d] = std::min(level.cap[d], g.tile[d] * 2);
    g.nextWide[d] = w(g.next[d]);
    g.nextCount[d] = level.count(d, g.next[d]);
}

/** The best candidate of one round so far. */
struct Round
{
    Scored best;
    int dim = -1;
};

/**
 * Scores candidate D if it is live, keeping the best in @p round
 * (strict <, so ties keep the earlier dimension) and dropping D from
 * @p live if its doubling does not fit.
 */
template <int D, class Level>
void
tryDim(const Level &level, const Growth &g, unsigned *live, Round *round)
{
    if (!(*live & bit(D)))
        return;
    Scored grown;
    if (!score<D>(level, g, &grown)) {
        *live &= ~bit(D);
        return;
    }
    if (grown.score < round->best.score) {
        round->best = grown;
        round->dim = D;
    }
}

/** One round: tryDim over Level::Order, in that order. */
template <class Level, int... Ds>
Round
bestDoubling(const Level &level, const Growth &g, unsigned *live,
             const Scored &now, std::integer_sequence<int, Ds...>)
{
    Round round{now};
    (tryDim<Ds>(level, g, live, &round), ...);
    return round;
}

/**
 * Greedy tile growth, one loop for both levels: repeatedly take the
 * doubling of tile[d], d in Level::Order and capped at level.cap[d],
 * that fits and most reduces the level's proxy. The tile fits at the
 * start and after every taken step, so a candidate checks only its
 * own dimension's buffers. Tiles only grow and no word count falls as
 * an extent grows, so a dimension at its cap or whose doubling does
 * not fit is dropped for good; the rest are scored in Level::Order
 * (ties go to the first dimension under strict <).
 */
template <class Level>
void
growTiles(const Level &level, Extents &tile)
{
    Growth g(level, tile);
    unsigned live = 0;
    for (int d = 0; d < numDims; ++d) {
        if ((bits(typename Level::Order{}) & bit(d)) &&
            tile[d] < level.cap[d]) {
            live |= bit(d);
            cacheDoubling(level, g, d);
        }
    }
    Scored now;
    score<noDim>(level, g, &now);
    while (true) {
        const Round round =
            bestDoubling(level, g, &live, now, typename Level::Order{});
        if (round.dim < 0)
            break;
        const int d = round.dim;
        g.tile[d] = g.next[d];
        g.wide[d] = g.nextWide[d];
        g.count[d] = g.nextCount[d];
        for (int j = d; j < numDims; ++j)
            g.prefix[j + 1] = g.prefix[j] * g.count[j];
        g.inWords = round.best.inWords;
        now = round.best;
        if (g.tile[d] < level.cap[d])
            cacheDoubling(level, g, d);
        else
            live &= ~bit(d);
    }
    tile = g.tile;
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

    const PeLevel pe(model_, arch, layer, dims, m.spatialK);

    // Shrink the spatial C split, then the filter window, until the
    // minimal per-PE tile fits. A fully minimal tile is 1 word per
    // buffer; if even that fails the architecture cannot map the layer.
    while (!fitsWhole(pe, m.tilePe) && m.spatialC > 1) {
        m.spatialC = std::max<std::int64_t>(1, m.spatialC / 2);
        m.tilePe[DimC] = m.spatialC;
    }
    while (!fitsWhole(pe, m.tilePe) &&
           (m.tilePe[DimR] > 1 || m.tilePe[DimS] > 1)) {
        if (m.tilePe[DimR] >= m.tilePe[DimS])
            m.tilePe[DimR] = std::max<std::int64_t>(
                1, m.tilePe[DimR] / 2);
        else
            m.tilePe[DimS] = std::max<std::int64_t>(
                1, m.tilePe[DimS] / 2);
    }
    if (!fitsWhole(pe, m.tilePe))
        return std::nullopt;

    // Greedy per-PE tile growth, ranked by a DRAM-traffic proxy.
    growTiles(pe, m.tilePe);

    // Global-buffer tile starts at the concurrent array tile and grows
    // under the global-buffer capacity, minimizing DRAM input traffic.
    const GbLevel gb(model_, arch, layer, dims);
    for (int d = 0; d < numDims; ++d)
        m.tileGb[d] = std::min(dims[d], m.arrayTilePe(d));
    if (!fitsWhole(gb, m.tileGb)) {
        // Shrink the global-buffer tile toward the per-PE tile in
        // C/Q/P; for K the buffer must cover the concurrent array
        // tile, so shrink the K split itself (temporal first, then
        // spatial, giving up PE parallelism last).
        for (int d : {DimC, DimQ, DimP}) {
            while (!fitsWhole(gb, m.tileGb) &&
                   m.tileGb[d] > m.tilePe[d]) {
                m.tileGb[d] = std::max(m.tilePe[d], m.tileGb[d] / 2);
            }
        }
        while (!fitsWhole(gb, m.tileGb) &&
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
            while (!fitsWhole(gb, m.tileGb) &&
                   m.tilePe[d] > 1) {
                m.tilePe[d] = std::max<std::int64_t>(
                    1, m.tilePe[d] / 2);
                if (d == DimC) {
                    m.spatialC = std::min(m.spatialC, m.tilePe[DimC]);
                }
                m.tileGb[d] = std::min(dims[d], m.tilePe[d]);
            }
        }
        if (!fitsWhole(gb, m.tileGb))
            return std::nullopt;
    }
    // Global-buffer growth, ranked by DRAM input traffic.
    growTiles(gb, m.tileGb);

    std::string reason;
    if (!model_.checkMapping(arch, layer, m, &reason)) {
        debugLog("scheduler produced an illegal mapping (", reason,
                 ") for ", layer.describe(), " on ", arch.describe());
        return std::nullopt;
    }
    return m;
}

} // namespace vaesa
