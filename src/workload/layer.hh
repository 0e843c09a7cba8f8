/**
 * @file
 * DNN layer shapes in the paper's 8-column format (Table IV):
 * weight width, weight height, output width, output height, input
 * channels, output channels, stride width, stride height. Batch size
 * is 1 throughout, matching the evaluation setup.
 */

#ifndef VAESA_WORKLOAD_LAYER_HH
#define VAESA_WORKLOAD_LAYER_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vaesa {

/**
 * One convolutional or fully-connected layer. A fully-connected layer
 * is the special case r = s = p = q = 1 with c/k the feature widths.
 * Grouped convolutions (ResNeXt) are represented with c equal to the
 * per-group input-channel count, which keeps the MAC count exact.
 */
struct LayerShape
{
    /** Human-readable identifier, e.g. "resnet50.conv1". */
    std::string name;

    /** Weight (filter) width R. */
    std::int64_t r = 1;

    /** Weight (filter) height S. */
    std::int64_t s = 1;

    /** Output width P. */
    std::int64_t p = 1;

    /** Output height Q. */
    std::int64_t q = 1;

    /** Input channels C (per group for grouped convolution). */
    std::int64_t c = 1;

    /** Output channels K. */
    std::int64_t k = 1;

    /** Horizontal stride. */
    std::int64_t strideW = 1;

    /** Vertical stride. */
    std::int64_t strideH = 1;

    // Word counts are products of up to six dimensions. On hostile
    // CSV shapes (the same bug class as the Mapping word-count fix:
    // fuzzed or adversarial layer files with dims near INT64_MAX) the
    // int64 products overflow — signed overflow is UB and a wrapped
    // negative count can make an impossibly large layer look cheap —
    // so every factor is widened to double BEFORE multiplying. Each
    // legitimate factor is far below 2^53, so results are exact
    // whenever they matter and merely lose precision (never wrap) on
    // shapes that oversizeReason() rejects anyway.

    /** Total multiply-accumulates: R*S*P*Q*C*K (batch 1). */
    double macs() const;

    /** Number of weight words: R*S*C*K. */
    double weightWords() const;

    /** Number of output words: P*Q*K. */
    double outputWords() const;

    /** Input activation width: (P-1)*strideW + R. */
    double inputW() const;

    /** Input activation height: (Q-1)*strideH + S. */
    double inputH() const;

    /** Number of input words: inputW*inputH*C. */
    double inputWords() const;

    /** True when every dimension is at least 1. */
    bool isSane() const;

    /**
     * Structured rejection for shapes whose derived totals (MACs or
     * any word count) exceed 2^53, the largest range over which the
     * double-domain counts above stay exact integers. The layer-file
     * loader refuses such shapes with this reason
     * instead of silently feeding saturated math downstream.
     * @return nullopt when the shape is within bounds.
     */
    std::optional<std::string> oversizeReason() const;

    /**
     * Raw feature vector for the predictors: log2 of the eight
     * dimensions in Table IV column order.
     */
    std::vector<double> toFeatures() const;

    /** One-line description in Table IV column order. */
    std::string describe() const;

    /** Shape equality ignoring the name. */
    bool sameShape(const LayerShape &other) const;
};

/** Number of per-layer features fed to the performance predictors. */
constexpr int numLayerFeatures = 8;

} // namespace vaesa

#endif // VAESA_WORKLOAD_LAYER_HH
