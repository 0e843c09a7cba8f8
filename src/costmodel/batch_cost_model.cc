#include "costmodel/batch_cost_model.hh"

#include <string>
#include <vector>

#include "tensor/kernels/cost_kernels.hh"
#include "util/contracts.hh"
#include "util/numeric.hh"

namespace vaesa {

void
BatchCostModel::evaluateLayer(const AcceleratorConfig *archs,
                              const Mapping *mappings, std::size_t n,
                              const LayerShape &layer,
                              CostResult *results) const
{
    if (n == 0)
        return;
    const CostModel &model = *model_;
    const EnergyModel &energy = model.energy();
    const CostModel::Params &params = model.params();

    // Validation pass: invalid items are finalized immediately with
    // the scalar path's exact reason string; valid items are
    // compacted into the SoA lanes below so the kernel sees a dense
    // batch.
    std::vector<std::size_t> live;
    live.reserve(n);
    std::string reason;
    for (std::size_t i = 0; i < n; ++i) {
        results[i] = CostResult{};
        if (model.checkMapping(archs[i], layer, mappings[i], &reason)) {
            results[i].valid = true;
            live.push_back(i);
        } else {
            results[i].valid = false;
            results[i].invalidReason = reason;
        }
    }
    if (live.empty())
        return;

    // 13 input + 8 output lanes, one allocation.
    const std::size_t m = live.size();
    std::vector<double> soa(m * 21);
    double *nTotal = soa.data();
    double *cyclesPerTile = nTotal + m;
    double *nPqOuter = cyclesPerTile + m;
    double *nGbAll = nPqOuter + m;
    double *inputGbWords = nGbAll + m;
    double *inputTileWords = inputGbWords + m;
    double *spatialK = inputTileWords + m;
    double *spatialC = spatialK + m;
    double *pqTile = spatialC + m;
    double *inputBufPj = pqTile + m;
    double *weightBufPj = inputBufPj + m;
    double *accumBufPj = weightBufPj + m;
    double *globalBufPj = accumBufPj + m;
    double *outCompute = globalBufPj + m;
    double *outDram = outCompute + m;
    double *outGb = outDram + m;
    double *outWeightReads = outGb + m;
    double *outInputReads = outWeightReads + m;
    double *outLatency = outInputReads + m;
    double *outEnergy = outLatency + m;
    double *outUtil = outEnergy + m;

    // Gather pass. Every expression below mirrors the scalar prep in
    // CostModel::evaluate() operation for operation (same widening
    // points, same product order over dimensions), which is what
    // makes the batch path bit-identical to the scalar path rather
    // than merely close.
    const auto dims = layerDims(layer);
    for (std::size_t j = 0; j < m; ++j) {
        const AcceleratorConfig &arch = archs[live[j]];
        const Mapping &mapping = mappings[live[j]];

        double n_total = 1.0;
        double n_gb_all = 1.0;
        for (int d = 0; d < numDims; ++d) {
            n_total *= static_cast<double>(
                ceilDiv(dims[d], mapping.arrayTilePe(d)));
            n_gb_all *= static_cast<double>(
                ceilDiv(dims[d], mapping.tileGb[d]));
        }
        nTotal[j] = n_total;
        nGbAll[j] = n_gb_all;

        cyclesPerTile[j] =
            static_cast<double>(mapping.tilePe[DimR]) *
            static_cast<double>(mapping.tilePe[DimS]) *
            static_cast<double>(mapping.tilePe[DimP]) *
            static_cast<double>(mapping.tilePe[DimQ]) *
            static_cast<double>(
                ceilDiv(mapping.tilePe[DimC], mapping.spatialC)) *
            static_cast<double>(mapping.tilePe[DimK]);

        nPqOuter[j] =
            static_cast<double>(
                ceilDiv(dims[DimP], mapping.tilePe[DimP])) *
            static_cast<double>(
                ceilDiv(dims[DimQ], mapping.tilePe[DimQ]));

        inputGbWords[j] = mapping.inputGbTileWords(layer);
        inputTileWords[j] = mapping.inputTileWords(layer);
        spatialK[j] = static_cast<double>(mapping.spatialK);
        spatialC[j] = static_cast<double>(mapping.spatialC);
        pqTile[j] = static_cast<double>(mapping.tilePe[DimP]) *
                    static_cast<double>(mapping.tilePe[DimQ]);

        inputBufPj[j] = energy.sramAccessPj(arch.inputBufBytes);
        weightBufPj[j] = energy.sramAccessPj(arch.weightBufBytes);
        accumBufPj[j] = energy.sramAccessPj(arch.accumBufBytes);
        globalBufPj[j] = energy.sramAccessPj(arch.globalBufBytes);
    }

    const kernels::CostBatch batch{
        nTotal,       cyclesPerTile,  nPqOuter,  nGbAll,
        inputGbWords, inputTileWords, spatialK,  spatialC,
        pqTile,       inputBufPj,     weightBufPj,
        accumBufPj,   globalBufPj,
        outCompute,   outDram,        outGb,     outWeightReads,
        outInputReads, outLatency,    outEnergy, outUtil};
    const kernels::CostBatchConsts consts{
        layer.macs(),
        static_cast<double>(layer.weightWords()),
        static_cast<double>(layer.outputWords()),
        params.dramWordsPerCycle,
        params.globalBufWordsPerCycle,
        energy.macPj(),
        energy.registerAccessPj(),
        energy.dramAccessPj(),
        energy.nocHopPj()};
    kernels::costBatch(m, batch, consts);

    // Scatter pass, with the scalar path's post-condition contracts
    // re-applied per item at the costmodel/sched boundary.
    const double dram_output_writes =
        static_cast<double>(layer.outputWords());
    for (std::size_t j = 0; j < m; ++j) {
        CostResult &r = results[live[j]];
        r.computeCycles = outCompute[j];
        r.dramCycles = outDram[j];
        r.globalBufCycles = outGb[j];
        r.dramWeightReads = outWeightReads[j];
        r.dramInputReads = outInputReads[j];
        r.dramOutputWrites = dram_output_writes;
        r.latencyCycles = outLatency[j];
        r.energyPj = outEnergy[j];
        r.macUtilization = outUtil[j];

        VAESA_CHECK_FINITE(r.latencyCycles, "latency for layer ",
                           layer.name);
        VAESA_CHECK_FINITE(r.energyPj, "energy for layer ",
                           layer.name);
        VAESA_ENSURE(r.latencyCycles >= 0.0,
                     "negative latency for layer ", layer.name);
        VAESA_ENSURE(r.energyPj >= 0.0,
                     "negative energy for layer ", layer.name);
        VAESA_ENSURE(r.macUtilization >= 0.0 &&
                         r.macUtilization <= 1.0 + 1e-9,
                     "MAC utilization outside [0, 1] for layer ",
                     layer.name, ": ", r.macUtilization);
    }
}

} // namespace vaesa
