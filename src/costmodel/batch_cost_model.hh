/**
 * @file
 * Loop of CostModel::evaluate() over N (architecture, mapping) items
 * on one layer. The repository benchmark's mapper replay
 * (perfbench/harness/replay.cc) times the cost model through this
 * signature; everything else calls CostModel::evaluate() directly.
 */

#ifndef VAESA_COSTMODEL_BATCH_COST_MODEL_HH
#define VAESA_COSTMODEL_BATCH_COST_MODEL_HH

#include <cstddef>

#include "costmodel/cost_model.hh"

namespace vaesa {

/** Scores items through a borrowed CostModel. */
class BatchCostModel
{
  public:
    /** Wrap @p model (borrowed; must outlive this object). */
    explicit BatchCostModel(const CostModel &model) : model_(&model) {}

    /** results[i] = model.evaluate(archs[i], layer, mappings[i]). */
    void evaluateLayer(const AcceleratorConfig *archs,
                       const Mapping *mappings, std::size_t n,
                       const LayerShape &layer, CostResult *results) const
    {
        for (std::size_t i = 0; i < n; ++i)
            results[i] = model_->evaluate(archs[i], layer, mappings[i]);
    }

  private:
    const CostModel *model_;
};

} // namespace vaesa

#endif // VAESA_COSTMODEL_BATCH_COST_MODEL_HH
