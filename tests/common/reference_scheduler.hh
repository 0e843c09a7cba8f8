/**
 * @file
 * Reference mapper: the plain greedy the one-shot Scheduler
 * (src/sched/scheduler.hh) is tested against.
 *
 * It makes the same choices as Scheduler::schedule by brute force:
 * every round it copies the whole Mapping for each candidate doubling,
 * re-checks every buffer, and scores every candidate that fits, with
 * no pruning of dimensions that can no longer grow. The scheduler's
 * pruned loop must return the same mapping, field for field. It is
 * linked only by the tests, never by vaesa_core.
 */

#ifndef VAESA_TESTS_COMMON_REFERENCE_SCHEDULER_HH
#define VAESA_TESTS_COMMON_REFERENCE_SCHEDULER_HH

#include <optional>

#include "costmodel/cost_model.hh"
#include "costmodel/mapping.hh"
#include "workload/layer.hh"

namespace vaesa::reference {

/** The mapping Scheduler(model).schedule(arch, layer) must return. */
std::optional<Mapping> schedule(const AcceleratorConfig &arch,
                                const LayerShape &layer,
                                const CostModel &model = CostModel{});

} // namespace vaesa::reference

#endif // VAESA_TESTS_COMMON_REFERENCE_SCHEDULER_HH
