/**
 * @file
 * One-shot deterministic mapper -- the repository's stand-in for CoSA.
 *
 * Given (architecture, layer) the scheduler returns a single mapping
 * without searching the simulator: it maximizes spatial utilization,
 * then greedily grows the per-PE and global-buffer tiles under the
 * capacity constraints, at each step taking the growth that most
 * reduces an analytical DRAM-traffic proxy. This mirrors CoSA's role
 * in VAESA: a fast, deterministic, optimization-guided mapping oracle
 * so the DSE loop only searches over *hardware* parameters.
 *
 * Both levels grow through one greedy loop. Each live dimension keeps
 * its doubled extent and that extent's tile count, recomputed only
 * when the dimension is taken, and a candidate's fit check and proxy
 * are instantiated per dimension, so scoring one divides nothing and
 * writes nothing into the tile. Every scored expression keeps the
 * floating-point order of the brute-force greedy the tests hold it to
 * (tests/common/reference_scheduler.hh), so the mappings match it bit
 * for bit.
 */

#ifndef VAESA_SCHED_SCHEDULER_HH
#define VAESA_SCHED_SCHEDULER_HH

#include <optional>

#include "arch/design_space.hh"
#include "costmodel/cost_model.hh"
#include "costmodel/mapping.hh"
#include "workload/layer.hh"

namespace vaesa {

/** Deterministic one-shot mapping generator. */
class Scheduler
{
  public:
    /** Scheduler validating against the default cost-model params. */
    Scheduler() = default;

    /** Scheduler sharing an existing cost model's parameters. */
    explicit Scheduler(const CostModel &model);

    /**
     * Produce a mapping for the layer on the architecture.
     * @return nullopt when no legal mapping exists (e.g.\ a buffer is
     * too small to hold even a minimal tile).
     */
    std::optional<Mapping> schedule(const AcceleratorConfig &arch,
                                    const LayerShape &layer) const;

  private:
    CostModel model_;
};

} // namespace vaesa

#endif // VAESA_SCHED_SCHEDULER_HH
