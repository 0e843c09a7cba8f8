/**
 * @file
 * Structure-of-arrays batch front-end of the analytical cost model:
 * score N (architecture, mapping) items against ONE layer in a
 * single pass. The branchy per-item work (mapping validation,
 * ceil-divided tile counts, per-architecture SRAM energy lookups)
 * runs here as a gather pass; the dense floating-point tail runs in
 * the kernel layer (src/tensor/kernels/cost_kernels.*), and a scatter
 * pass re-applies the scalar path's post-condition contracts per
 * item.
 *
 * Determinism/equivalence contract (enforced by
 * tests/costmodel/test_batch_properties.cc):
 *  - Every headline field produced below is BIT-IDENTICAL to
 *    CostModel::evaluate() on the same item — the gather pass
 *    replicates the scalar operation order exactly, and the cost
 *    kernel TU is built at baseline flags.
 *  - Results are independent of batch size, item order, and the
 *    presence of duplicate items.
 *
 * Scope note: the batch path fills validity, the latency triple and
 * roll-up, the DRAM traffic triple, total energyPj, and
 * macUtilization — everything the search/evaluation stack consumes
 * (EvalResult needs only latency/energy/edp). The per-term energy
 * breakdown stays zero; callers that want it (reporting, figures) go
 * through the scalar CostModel::evaluate() / Evaluator::detailedLayer
 * path, which remains the source of truth for breakdowns.
 */

#ifndef VAESA_COSTMODEL_BATCH_COST_MODEL_HH
#define VAESA_COSTMODEL_BATCH_COST_MODEL_HH

#include <cstddef>

#include "costmodel/cost_model.hh"

namespace vaesa {

/**
 * Batch scorer over a borrowed CostModel. Stateless and cheap to
 * construct; safe to share across threads (scoring allocates only
 * function-local scratch).
 */
class BatchCostModel
{
  public:
    /** Wrap @p model (borrowed; must outlive this object). */
    explicit BatchCostModel(const CostModel &model) : model_(&model) {}

    /**
     * Score items [0, n): results[i] = the batch-path equivalent of
     * model.evaluate(archs[i], layer, mappings[i]). Items failing
     * checkMapping() come back invalid with the scalar path's exact
     * reason string and zeroed numeric fields.
     */
    void evaluateLayer(const AcceleratorConfig *archs,
                       const Mapping *mappings, std::size_t n,
                       const LayerShape &layer,
                       CostResult *results) const;

    /** The wrapped scalar model. */
    const CostModel &model() const { return *model_; }

  private:
    const CostModel *model_;
};

} // namespace vaesa

#endif // VAESA_COSTMODEL_BATCH_COST_MODEL_HH
