/**
 * @file
 * Structure-of-arrays batch kernel for the analytical cost model: the
 * straight-line floating-point tail of CostModel::evaluate() applied
 * to N (config, mapping) items in one pass. The branchy integer prep
 * (mapping checks, ceil-divided tile counts, per-arch SRAM energies)
 * stays in src/costmodel/batch_cost_model.cc; only the dense math
 * lives here, per the kernel-containment convention (tools/check).
 *
 * There is one implementation, built at the project's baseline
 * flags: it replicates the exact operation order of the scalar
 * CostModel::evaluate() FP sequence one item at a time, so its
 * results are bit-for-bit equal to the scalar path by construction.
 *
 * Determinism contract: fixed inputs give bit-identical outputs,
 * independent of batch size, item order, and thread count (the
 * kernel itself is single-threaded; callers partition items into
 * disjoint ranges).
 *
 * No output array may alias an input. All arrays are dense doubles
 * of length n, one entry per batch item; per-layer quantities that
 * do not vary across items travel in CostBatchConsts.
 */

#ifndef VAESA_TENSOR_KERNELS_COST_KERNELS_HH
#define VAESA_TENSOR_KERNELS_COST_KERNELS_HH

#include <cstddef>

namespace vaesa::kernels {

/**
 * SoA views of one batch: per-item inputs derived from the mapping
 * (exact small-integer products widened to double by the prep pass)
 * and per-item outputs. All pointers are length-n arrays owned by
 * the caller.
 */
struct CostBatch
{
    /** @name Per-item inputs */
    /** @{ */
    /** Product of per-dimension PE-array tile counts. */
    const double *nTotal;

    /** Cycles one PE spends per array tile. */
    const double *cyclesPerTile;

    /** Outer (P, Q) tile iteration count (weight re-fetch factor). */
    const double *nPqOuter;

    /** Product of per-dimension global-buffer tile counts. */
    const double *nGbAll;

    /** Words of the global buffer's input tile (halo included). */
    const double *inputGbWords;

    /** Words of one PE's input tile (halo included). */
    const double *inputTileWords;

    /** Spatial K split (PEs used), as a double. */
    const double *spatialK;

    /** Spatial C split (lanes used per PE), as a double. */
    const double *spatialC;

    /** tilePe[P] * tilePe[Q] (weight-buffer read divisor). */
    const double *pqTile;

    /** Per-arch SRAM energies (pJ/access) of the four buffers. */
    const double *inputBufPj;
    const double *weightBufPj;
    const double *accumBufPj;
    const double *globalBufPj;
    /** @} */

    /** @name Per-item outputs */
    /** @{ */
    double *computeCycles;
    double *dramCycles;
    double *globalBufCycles;
    double *dramWeightReads;
    double *dramInputReads;
    double *latencyCycles;
    double *energyPj;
    double *macUtilization;
    /** @} */
};

/** Quantities constant across one batch (fixed layer + bandwidths). */
struct CostBatchConsts
{
    /** Total MACs of the layer. */
    double macs;

    /** Weight words of the layer. */
    double weightWords;

    /** Output words of the layer (= DRAM output writes). */
    double outputWords;

    /** DRAM bandwidth in words per cycle. */
    double dramWordsPerCycle;

    /** Global-buffer bandwidth in words per cycle. */
    double globalBufWordsPerCycle;

    /** Per-action energies (pJ). */
    double macPj;
    double registerPj;
    double dramPj;
    double nocPj;
};

/**
 * Score items [0, n) of the batch. Single-threaded; callers wanting
 * parallelism hand disjoint sub-ranges to pool workers.
 */
void costBatch(std::size_t n, const CostBatch &batch,
               const CostBatchConsts &consts);

} // namespace vaesa::kernels

#endif // VAESA_TENSOR_KERNELS_COST_KERNELS_HH
