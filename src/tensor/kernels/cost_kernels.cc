/**
 * @file
 * The batch cost kernel. This TU is compiled at the project's
 * BASELINE flags (no -mavx2, no -ffast-math, no contraction) so that
 * each item goes through the same sequence of individually rounded
 * IEEE 754 operations as the scalar CostModel::evaluate() path — the
 * operation order below mirrors src/costmodel/cost_model.cc
 * statement for statement, which is what makes batch-vs-scalar
 * bit-exactness a structural property rather than a tuning accident.
 * Keep the two in sync when either changes;
 * tests/costmodel/test_batch_properties.cc enforces the equality.
 */

#include "tensor/kernels/cost_kernels.hh"

#include <cmath>

namespace vaesa::kernels {

void
costBatch(std::size_t n, const CostBatch &b, const CostBatchConsts &c)
{
    for (std::size_t i = 0; i < n; ++i) {
        const double n_total = b.nTotal[i];
        const double compute_cycles = n_total * b.cyclesPerTile[i];

        const double dram_weight_reads = c.weightWords * b.nPqOuter[i];
        const double dram_input_reads = b.nGbAll[i] * b.inputGbWords[i];
        const double dram_output_writes = c.outputWords;

        const double gb_input_writes = dram_input_reads;
        const double gb_input_reads = n_total * b.inputTileWords[i];
        const double gb_output_writes = dram_output_writes;
        const double gb_output_reads = dram_output_writes;

        const double input_buf_writes = gb_input_reads * b.spatialK[i];
        const double input_buf_reads = c.macs;
        const double weight_buf_writes = dram_weight_reads;
        const double weight_buf_reads = c.macs / b.pqTile[i];
        const double accum_updates = c.macs / b.spatialC[i];
        const double accum_accesses =
            2.0 * accum_updates + 2.0 * dram_output_writes;

        const double dram_words =
            dram_weight_reads + dram_input_reads + dram_output_writes;
        const double dram_cycles = dram_words / c.dramWordsPerCycle;

        const double gb_words = gb_input_writes + gb_input_reads +
                                gb_output_writes + gb_output_reads;
        const double gb_cycles = gb_words / c.globalBufWordsPerCycle;

        double latency = compute_cycles;
        if (latency < dram_cycles)
            latency = dram_cycles;
        if (latency < gb_cycles)
            latency = gb_cycles;

        const double mac_energy = c.macs * c.macPj;
        const double reg_energy = 2.0 * c.macs * c.registerPj;
        const double input_buf_energy =
            (input_buf_reads + input_buf_writes) * b.inputBufPj[i];
        const double weight_buf_energy =
            (weight_buf_reads + weight_buf_writes) * b.weightBufPj[i];
        const double accum_buf_energy = accum_accesses * b.accumBufPj[i];
        const double global_buf_energy = gb_words * b.globalBufPj[i];
        const double dram_energy = dram_words * c.dramPj;
        const double mean_hops = std::sqrt(b.spatialK[i]);
        const double noc_energy =
            (gb_input_reads + dram_weight_reads + gb_output_writes) *
            mean_hops * c.nocPj;

        const double energy = mac_energy + reg_energy + input_buf_energy +
                              weight_buf_energy + accum_buf_energy +
                              global_buf_energy + dram_energy + noc_energy;

        const double issue_slots =
            compute_cycles * b.spatialK[i] * b.spatialC[i];
        const double util =
            issue_slots > 0.0 ? c.macs / issue_slots : 0.0;

        b.computeCycles[i] = compute_cycles;
        b.dramCycles[i] = dram_cycles;
        b.globalBufCycles[i] = gb_cycles;
        b.dramWeightReads[i] = dram_weight_reads;
        b.dramInputReads[i] = dram_input_reads;
        b.latencyCycles[i] = latency;
        b.energyPj[i] = energy;
        b.macUtilization[i] = util;
    }
}

} // namespace vaesa::kernels
