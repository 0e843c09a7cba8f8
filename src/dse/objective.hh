/**
 * @file
 * Search-space abstractions for design space exploration.
 *
 * An Objective is a black-box function over a continuous box to be
 * MINIMIZED (EDP in all of the paper's experiments). The same search
 * drivers (random, BO) run against the 6-D normalized input space and
 * against a VAE latent space; only the Objective differs, which is
 * exactly the framing of Figure 6.
 */

#ifndef VAESA_DSE_OBJECTIVE_HH
#define VAESA_DSE_OBJECTIVE_HH

#include <limits>
#include <vector>

#include "arch/design_space.hh"
#include "sched/evaluator.hh"
#include "workload/layer.hh"
#include "workload/networks.hh"

namespace vaesa {

class ThreadPool;

/** Value used for invalid/unmappable design points. */
constexpr double invalidScore = std::numeric_limits<double>::infinity();

/**
 * The hardware quantity a search minimizes. The paper optimizes EDP
 * throughout but notes the flow "can optimize the latency and energy
 * separately" (Section IV-A2).
 */
enum class Metric { Edp, Latency, Energy };

/** Extract a metric from an evaluation (invalidScore when invalid). */
double metricValue(const EvalResult &result, Metric metric);

/** Human-readable metric name. */
const char *metricName(Metric metric);

/** A black-box minimization problem over a continuous box. */
class Objective
{
  public:
    virtual ~Objective() = default;

    /** Dimensionality of the search box. */
    virtual std::size_t dim() const = 0;

    /** Per-dimension lower bounds of the box. */
    virtual std::vector<double> lowerBounds() const = 0;

    /** Per-dimension upper bounds of the box. */
    virtual std::vector<double> upperBounds() const = 0;

    /**
     * Score a point (smaller is better). Returns invalidScore when the
     * point decodes to an unmappable design.
     */
    virtual double evaluate(const std::vector<double> &x) = 0;

    /**
     * True when concurrent evaluate() calls on this instance are
     * safe AND deterministic (no per-call mutable state, no hidden
     * RNG draws). Search drivers only fan evaluations onto a thread
     * pool when this holds; the default is the conservative false.
     */
    virtual bool threadSafeEvaluate() const { return false; }

    /**
     * Score xs[i] into out[i] as one batch. The base implementation
     * makes per-point evaluateRecovered() calls, fanned across the
     * pool when one is given and threadSafeEvaluate() holds, serial
     * otherwise. Objectives backed by the batch evaluation pipeline
     * (InputSpaceObjective) override this to score the whole batch
     * through Evaluator::evaluateLayerBatch and then re-apply the
     * per-point recovery semantics in input order, so values, search
     * metrics, and fault-site hit counts stay identical to the
     * per-point path while the cost-model work runs batched. All
     * overrides must keep results in input order and bit-identical
     * to the base implementation for deterministic objectives.
     */
    virtual std::vector<double> evaluateBatch(
        const std::vector<std::vector<double>> &xs, ThreadPool *pool);
};

/**
 * Score one point with graceful degradation: an evaluator exception
 * or a NaN score (including the injected `eval_throw` / `eval_nan`
 * fault sites) marks the candidate invalid and the search continues,
 * instead of one bad design killing an hours-long run. One bounded
 * retry absorbs transient faults; persistent failures score
 * invalidScore.
 */
double evaluateRecovered(Objective &objective,
                         const std::vector<double> &x);

/**
 * Re-apply evaluateRecovered()'s exact semantics — metric counters,
 * timer, fault sites, NaN/exception retry, invalid fallback — to a
 * raw objective value already computed by a deterministic batch
 * pipeline. Every batch-capable Objective (InputSpaceObjective,
 * MultiWorkloadObjective) runs its batch results through this in
 * input order so values AND fault-site hit counts stay identical to
 * the per-point path.
 */
double recoverRawObjective(double raw);

/**
 * Map a [0,1]^6 box point to the nearest discrete Table II
 * configuration (per-axis linear index rounding; out-of-box
 * coordinates clamp). The shared decode of every input-space
 * objective.
 */
AcceleratorConfig decodeBoxPoint(const std::vector<double> &x);

/** Inverse of decodeBoxPoint onto grid indices, normalized [0,1]. */
std::vector<double> encodeBoxPoint(const AcceleratorConfig &config);

/** One evaluated point of a search run. */
struct TracePoint
{
    /** The point in the search box. */
    std::vector<double> x;

    /** Its objective value. */
    double value;
};

/** Chronological record of a search run. */
struct SearchTrace
{
    /** All evaluated points, in sample order. */
    std::vector<TracePoint> points;

    /** Append one evaluation. */
    void add(const std::vector<double> &x, double value);

    /** Best (smallest) value among the first n samples. */
    double bestAfter(std::size_t n) const;

    /** Best value overall (invalidScore when empty). */
    double best() const;

    /** Best point overall (empty when no finite sample exists). */
    std::vector<double> bestPoint() const;

    /** Best-so-far curve: out[i] = min(value[0..i]). */
    std::vector<double> bestCurve() const;

    /**
     * Sample index (1-based) at which the trace first reaches
     * threshold or better; 0 when it never does.
     */
    std::size_t samplesToReach(double threshold) const;
};

/**
 * The paper's direct-search objective over the ORIGINAL design space:
 * points live in the [0,1]^6 box that maps linearly onto the grid
 * *indices* of Table II, so a uniform sample is uniform over the
 * 3.6e17 discrete configurations (the paper's `random` baseline) and
 * BO sees the raw, linearly-scaled parameter axes (the paper's `bo`
 * baseline). Evaluation rounds to the nearest grid index and scores
 * workload EDP with the scheduler + cost model. Note the contrast
 * with the latent space: VAESA's learned representation is the
 * log-normalized, compressed one -- that difference is the point of
 * the paper.
 */
class InputSpaceObjective : public Objective
{
  public:
    /**
     * @param evaluator scoring backend (borrowed; must outlive this).
     * @param layers workload layers to optimize (paper mode: every
     *        layer once).
     * @param metric quantity to minimize (default EDP).
     */
    InputSpaceObjective(const Evaluator &evaluator,
                        std::vector<LayerShape> layers,
                        Metric metric = Metric::Edp);

    /**
     * Occurrence-counted variant: the workload's counts weight each
     * layer's latency/energy in the roll-up (see
     * Evaluator::evaluateWorkload(arch, Workload)). With empty
     * counts this is exactly the layer-vector constructor.
     */
    InputSpaceObjective(const Evaluator &evaluator, Workload workload,
                        Metric metric = Metric::Edp);

    std::size_t dim() const override;
    std::vector<double> lowerBounds() const override;
    std::vector<double> upperBounds() const override;
    double evaluate(const std::vector<double> &x) override;

    /** Decode + Evaluator are stateless-const and deterministic. */
    bool threadSafeEvaluate() const override { return true; }

    /**
     * Batch scoring through the SoA cost-model pipeline
     * (evaluateConfigBatch): decode every point, score all configs
     * layer-by-layer with within-batch dedup and work-stealing
     * chunks, then apply the per-point recovery/metric semantics in
     * input order. Bit-identical values and counter totals to the
     * per-point path; falls back to the base implementation if the
     * batch phase itself fails (so one bad batch degrades gracefully
     * instead of killing a run), or when no pool is given.
     */
    std::vector<double> evaluateBatch(
        const std::vector<std::vector<double>> &xs,
        ThreadPool *pool) override;

    /** Decode a box point to the discrete configuration it scores. */
    AcceleratorConfig decode(const std::vector<double> &x) const;

    /** Normalize a configuration into the [0,1]^6 box. */
    std::vector<double> encode(const AcceleratorConfig &config) const;

    /** The metric being minimized. */
    Metric metric() const { return metric_; }

  private:
    const Evaluator &evaluator_;
    Workload workload_;
    Metric metric_;
};

} // namespace vaesa

#endif // VAESA_DSE_OBJECTIVE_HH
