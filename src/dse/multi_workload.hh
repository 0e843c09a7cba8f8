/**
 * @file
 * Multi-workload co-design: one accelerator configuration scored
 * (by InputSpaceObjective, dse/objective.hh) against a weighted
 * traffic mix of whole networks, instead of a single workload's
 * unique layers. This is the co-design question the zoo exists for
 * — does one design serve BERT-class GEMMs, MobileNet depthwise
 * stacks and DLRM skinny MLPs at once, and what does it give up
 * against per-workload specialists (bench/pareto_zoo measures
 * exactly that)?
 *
 * The traffic-mix file format is one entry per line:
 *
 *   # comment lines and blank lines are ignored
 *   <workload-name> <weight>
 *
 * where <workload-name> is any built-in or zoo workload
 * (workloadByName's namespace) and <weight> is a positive finite
 * relative rate. Weights are used as given (not normalized), so the
 * objective is sum_i weight_i * EDP_i over the mix.
 */

#ifndef VAESA_DSE_MULTI_WORKLOAD_HH
#define VAESA_DSE_MULTI_WORKLOAD_HH

#include <string>
#include <vector>

#include "util/load_error.hh"
#include "workload/networks.hh"

namespace vaesa {

/** One workload of a traffic mix with its relative rate. */
struct TrafficEntry
{
    /** The (occurrence-counted) workload. */
    Workload workload;

    /** Positive relative rate of this workload in the mix. */
    double weight = 1.0;
};

/** A weighted set of workloads scored as one objective. */
struct TrafficMix
{
    /** The workloads and their weights, in file/insertion order. */
    std::vector<TrafficEntry> entries;
};

/**
 * Build a mix from (name, weight) pairs through tryWorkloadByName.
 * Returns a Malformed LoadError for an unknown name, a non-positive
 * or non-finite weight, a duplicate name, or an empty list.
 */
Expected<TrafficMix>
makeTrafficMix(const std::vector<std::pair<std::string, double>>
                   &namedWeights);

/**
 * Parse a traffic-mix file in the format above. Errors carry the
 * file name and 1-based line number (OpenFailed when unreadable,
 * Malformed on bad content or an empty mix).
 */
Expected<TrafficMix> parseTrafficMixFile(const std::string &path);

/**
 * Flatten a mix into one layer pool for dataset generation: every
 * unique layer of every entry, with sampling weight
 * entry.weight * countOf(layer). Shapes shared across entries merge
 * (first name wins, weights sum), so weighted sampling over the
 * result draws layers proportionally to their traffic-weighted
 * occurrence across the whole mix.
 */
std::vector<LayerShape> mixLayerPool(const TrafficMix &mix,
                                     std::vector<double> *weights_out);

} // namespace vaesa

#endif // VAESA_DSE_MULTI_WORKLOAD_HH
