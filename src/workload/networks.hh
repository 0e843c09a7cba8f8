/**
 * @file
 * Built-in DNN workloads (Table III) and the 12 unseen test layers of
 * Table IV. Each network is reduced to its *unique* layer shapes, as
 * in the paper: AlexNet 8, ResNet-50 24, ResNeXt-50-32x4d 25,
 * DeepBench (OCR + face recognition) 9.
 */

#ifndef VAESA_WORKLOAD_NETWORKS_HH
#define VAESA_WORKLOAD_NETWORKS_HH

#include <optional>
#include <string>
#include <vector>

#include "workload/layer.hh"

namespace vaesa {

/**
 * A named set of unique layers optimized as one workload.
 *
 * OCCURRENCE COUNTS: real networks repeat shapes (ResNet-50 runs its
 * stage-1 bottleneck 3 times; a BERT block's attention GEMMs run once
 * per head per block), and any whole-network or traffic-weighted
 * objective is wrong if that multiplicity is dropped. `counts[i]` is
 * how many times `layers[i]` occurs in the full network. An EMPTY
 * counts vector means every layer occurs once — the paper's
 * unique-layer mode, which the Table III/IV benches and the four
 * built-in training workloads keep for bit-identical reproduction.
 */
struct Workload
{
    /** Workload name, e.g. "resnet50". */
    std::string name;

    /** Unique layer shapes of the network. */
    std::vector<LayerShape> layers;

    /** Per-layer occurrence counts; empty = every layer once. */
    std::vector<std::int64_t> counts;

    /** Occurrences of layers[i] (1 when counts is empty). */
    std::int64_t countOf(std::size_t i) const;

    /** True when any layer occurs more than once. */
    bool hasCounts() const { return !counts.empty(); }

    /** Total layer instances: sum of counts. */
    std::int64_t totalLayers() const;

    /** Occurrence-weighted MAC total of the full network. */
    double totalMacs() const;
};

/**
 * Build a Workload from a network's FULL layer sequence: shapes are
 * deduplicated in first-occurrence order (uniqueLayersCounted) and the
 * dropped duplicates become occurrence counts instead of vanishing.
 */
Workload countedWorkload(std::string name,
                         const std::vector<LayerShape> &sequence);

/** AlexNet's 8 unique layers (5 conv + 3 FC). */
std::vector<LayerShape> alexNetLayers();

/** ResNet-50's 24 unique layers (torchvision topology + FC). */
std::vector<LayerShape> resNet50Layers();

/** ResNeXt-50-32x4d's 25 unique layers (grouped 3x3 as per-group C). */
std::vector<LayerShape> resNext50Layers();

/** DeepBench OCR + face-recognition set, 9 unique layers. */
std::vector<LayerShape> deepBenchLayers();

/** The 12 unseen conv/FC layers of Table IV used in the GD study. */
std::vector<LayerShape> gdTestLayers();

/** The four training/BO workloads of Table III. */
std::vector<Workload> trainingWorkloads();

/** Look up one training workload by name; fatal() if unknown. */
Workload workloadByName(const std::string &name);

/**
 * Non-fatal lookup for callers that must survive hostile input (the
 * serve request path): nullopt on an unknown name instead of
 * terminating the process.
 */
std::optional<Workload> tryWorkloadByName(const std::string &name);

/**
 * Remove duplicate shapes, keeping first occurrences (order stable).
 * counts_out[i] (when non-null) is how many input shapes collapsed
 * into output layer i, so occurrence-weighted sums over the result
 * equal plain sums over the full input sequence; dropping that
 * multiplicity was the bug behind wrong whole-network EDP totals.
 */
std::vector<LayerShape>
uniqueLayersCounted(const std::vector<LayerShape> &in,
                    std::vector<std::int64_t> *counts_out);

} // namespace vaesa

#endif // VAESA_WORKLOAD_NETWORKS_HH
