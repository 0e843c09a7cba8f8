#include "studies/random_mapper.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/logging.hh"
#include "util/numeric.hh"

namespace vaesa {

namespace {

/** Log-uniform integer in [1, hi]. */
std::int64_t
logUniform(Rng &rng, std::int64_t hi)
{
    if (hi <= 1)
        return 1;
    const double exponent =
        rng.uniform(0.0, std::log2(static_cast<double>(hi)));
    return std::clamp<std::int64_t>(
        static_cast<std::int64_t>(std::llround(std::exp2(exponent))),
        1, hi);
}

} // namespace

RandomMapper::RandomMapper(const CostModel &model,
                           const Options &options)
    : model_(model), options_(options)
{
}

std::optional<Mapping>
RandomMapper::sampleMapping(const AcceleratorConfig &arch,
                            const LayerShape &layer, Rng &rng) const
{
    if (!designSpace().isValid(arch) || !layer.isSane())
        return std::nullopt;
    const auto dims = layerDims(layer);

    Mapping m;
    m.spatialK = logUniform(
        rng, std::min<std::int64_t>(arch.numPes, dims[DimK]));
    m.spatialC = logUniform(
        rng, std::min<std::int64_t>(arch.lanesPerPe(), dims[DimC]));

    const std::int64_t max_k_tile = ceilDiv(dims[DimK], m.spatialK);
    for (int d = 0; d < numDims; ++d) {
        const std::int64_t cap =
            (d == DimK) ? max_k_tile : dims[d];
        m.tilePe[d] = logUniform(rng, cap);
    }
    m.tilePe[DimC] = std::max(m.tilePe[DimC], m.spatialC);

    // Shrink-to-fit the per-PE tile: halve the largest growable
    // dimension until all three PE buffers accept it.
    auto pe_fits = [&]() {
        std::string reason;
        Mapping probe = m;
        for (int d = 0; d < numDims; ++d)
            probe.tileGb[d] =
                std::min(dims[d], probe.arrayTilePe(d));
        return model_.checkMapping(arch, layer, probe, &reason) ||
               reason.find("global") != std::string::npos;
    };
    for (int guard = 0; guard < 256 && !pe_fits(); ++guard) {
        int largest = -1;
        std::int64_t size = 1;
        for (int d = 0; d < numDims; ++d) {
            const std::int64_t floor_d =
                (d == DimC) ? m.spatialC : 1;
            if (m.tilePe[d] > floor_d && m.tilePe[d] >= size) {
                size = m.tilePe[d];
                largest = d;
            }
        }
        if (largest < 0) {
            if (m.spatialC > 1) {
                m.spatialC = std::max<std::int64_t>(
                    1, m.spatialC / 2);
                m.tilePe[DimC] =
                    std::max(m.tilePe[DimC] / 2, m.spatialC);
                continue;
            }
            return std::nullopt;
        }
        const std::int64_t floor_d =
            (largest == DimC) ? m.spatialC : 1;
        m.tilePe[largest] =
            std::max(floor_d, m.tilePe[largest] / 2);
    }

    // Global-buffer tile: start at the array tile, take random
    // doubling steps while they fit.
    for (int d = 0; d < numDims; ++d)
        m.tileGb[d] = std::min(dims[d], m.arrayTilePe(d));
    auto gb_fits = [&]() {
        std::string reason;
        return model_.checkMapping(arch, layer, m, &reason);
    };
    if (!gb_fits()) {
        // Shrink the K split as the scheduler does.
        while (!gb_fits() &&
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
        for (int d : {DimC, DimQ, DimP, DimS, DimR}) {
            while (!gb_fits() && m.tilePe[d] > 1) {
                m.tilePe[d] = std::max<std::int64_t>(
                    1, m.tilePe[d] / 2);
                if (d == DimC)
                    m.spatialC =
                        std::min(m.spatialC, m.tilePe[DimC]);
                m.tileGb[d] = std::min(dims[d], m.tilePe[d]);
            }
        }
        if (!gb_fits())
            return std::nullopt;
    }
    for (int step = 0; step < 16; ++step) {
        const int d =
            std::array{DimP, DimQ, DimC, DimK}[rng.index(4)];
        if (m.tileGb[d] >= dims[d])
            continue;
        Mapping grown = m;
        grown.tileGb[d] = std::min(dims[d], m.tileGb[d] * 2);
        std::string reason;
        if (model_.checkMapping(arch, layer, grown, &reason))
            m = grown;
    }
    return m;
}

std::optional<Mapping>
RandomMapper::search(const AcceleratorConfig &arch,
                     const LayerShape &layer, Rng &rng) const
{
    std::optional<Mapping> best;
    double best_edp = 0.0;
    std::size_t rejects = 0;
    std::size_t accepted = 0;
    while (accepted < options_.samples) {
        const auto mapping = sampleMapping(arch, layer, rng);
        if (!mapping) {
            if (++rejects >
                options_.maxRejectsPerSample * options_.samples) {
                break;
            }
            continue;
        }
        ++accepted;
        const CostResult cost =
            model_.evaluate(arch, layer, *mapping);
        if (!cost.valid)
            continue;
        if (!best || cost.edp() < best_edp) {
            best = mapping;
            best_edp = cost.edp();
        }
    }
    return best;
}

} // namespace vaesa
