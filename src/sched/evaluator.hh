/**
 * @file
 * Evaluation facade: schedule a layer (CoSA stand-in), score the
 * mapping (Timeloop stand-in), and roll results up to workload level.
 * This is the "evaluator" component of the VAESA framework (Sec III-A)
 * and the only interface the DSE layers talk to.
 */

#ifndef VAESA_SCHED_EVALUATOR_HH
#define VAESA_SCHED_EVALUATOR_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "costmodel/cost_model.hh"
#include "sched/scheduler.hh"
#include "workload/networks.hh"

namespace vaesa {

/** Scored evaluation of an architecture on a layer or workload. */
struct EvalResult
{
    /** False when any layer could not be mapped. */
    bool valid = false;

    /** Total latency in cycles (summed over layers). */
    double latencyCycles = 0.0;

    /** Total energy in pJ (summed over layers). */
    double energyPj = 0.0;

    /** Energy-delay product (cycles * pJ) of the totals. */
    double edp = 0.0;
};

/**
 * Facade over Scheduler + CostModel. Counts evaluations so search
 * methods can report sample budgets consistently.
 *
 * THREAD SAFETY: evaluateLayer/evaluateWorkload/detailedLayer are
 * safe to call concurrently on one instance — the scheduler and cost
 * model are stateless const pipelines and the evaluation counter is
 * atomic. This is what the parallel evaluation layer
 * (sched/parallel_evaluator.hh) builds on.
 */
class Evaluator
{
  public:
    /** Evaluator with default model parameters. */
    Evaluator();

    /** Evaluator with an explicit cost model. */
    explicit Evaluator(const CostModel &model);

    /** Copy model/scheduler plus the counter's current value. */
    Evaluator(const Evaluator &other);
    Evaluator &operator=(const Evaluator &other);

    /** Schedule and score one layer on an architecture. */
    EvalResult evaluateLayer(const AcceleratorConfig &arch,
                             const LayerShape &layer) const;

    /**
     * Schedule and score every layer and sum latency/energy; EDP is
     * total-latency x total-energy (the paper's workload objective).
     * Invalid if any layer fails to map.
     */
    EvalResult evaluateWorkload(const AcceleratorConfig &arch,
                                const std::vector<LayerShape> &layers)
                                const;

    /**
     * Occurrence-counted workload evaluation: each unique layer is
     * scheduled and scored once, then its latency/energy enter the
     * totals weighted by Workload::countOf. Both overloads share one
     * body; with empty counts every weight is exactly 1.0, so the
     * result is bit-identical to the layer-vector overload —
     * paper-mode callers can route through either.
     */
    EvalResult evaluateWorkload(const AcceleratorConfig &arch,
                                const Workload &workload) const;

    /** Detailed per-layer result (mapping + full cost breakdown). */
    CostResult detailedLayer(const AcceleratorConfig &arch,
                             const LayerShape &layer,
                             Mapping *mapping_out = nullptr) const;

    /**
     * evaluateLayer() without counting it, for a caller that walks
     * several layers and counts them with one countEvaluations():
     * the counter is shared by every pool worker, and a per-layer
     * increment costs a cache-line transfer each time.
     */
    EvalResult scoreLayer(const AcceleratorConfig &arch,
                          const LayerShape &layer) const;

    /** Add @p layers scoreLayer() calls to evaluationCount(). */
    void countEvaluations(std::uint64_t layers) const
    {
        evalCount_ += layers;
    }

    /** Number of layer evaluations performed so far. */
    std::uint64_t evaluationCount() const { return evalCount_; }

    /** Reset the evaluation counter. */
    void resetCount() { evalCount_ = 0; }

    /** The underlying cost model. */
    const CostModel &model() const { return model_; }

  private:

    /** The one workload roll-up behind both evaluateWorkload
     *  overloads: layer i's latency/energy enter the totals weighted
     *  by counts[i] (exactly 1.0 when counts is empty, which leaves
     *  every product unchanged), and the first unmappable layer
     *  zeroes the result. The layers walked are counted in one add
     *  (see scoreLayer()). */
    EvalResult rollUp(const AcceleratorConfig &arch,
                      const std::vector<LayerShape> &layers,
                      const std::vector<std::int64_t> &counts) const;

    CostModel model_;
    Scheduler scheduler_;
    mutable std::atomic<std::uint64_t> evalCount_{0};
};

} // namespace vaesa

#endif // VAESA_SCHED_EVALUATOR_HH
