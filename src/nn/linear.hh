/**
 * @file
 * Fully-connected (affine) layer. It owns its scratch as members:
 * the forward output, the input gradient and the transposed weights
 * the fused forward reads.
 */

#ifndef VAESA_NN_LINEAR_HH
#define VAESA_NN_LINEAR_HH

#include <string>

#include "nn/module.hh"

namespace vaesa {
class Rng;
} // namespace vaesa

namespace vaesa::nn {

/**
 * Affine layer: output = input * W^T + b.
 *
 * W is stored (out x in) so each output neuron's weights are one
 * contiguous row. Initialization is Kaiming-uniform: the bound is
 * gain * sqrt(3 / fan_in), with the gain chosen for the nonlinearity
 * the layer feeds (leakyReluGain() for LeakyReLU stacks; the
 * kDefaultInitGain sqrt(2) keeps heads and output layers on the
 * historical bound).
 *
 * Checkpoint compatibility: the init change is gated behind fresh
 * construction only -- the versioned parameter records
 * (nn/serialize.hh) overwrite both value matrices wholesale on load,
 * so resuming from any existing checkpoint remains bit-identical
 * regardless of how the replacement weights were first drawn.
 */
class Linear : public Module
{
  public:
    /** Kaiming gain for a plain/unknown following nonlinearity. */
    static constexpr double kDefaultInitGain = 1.4142135623730951;

    /** Kaiming gain sqrt(2 / (1 + slope^2)) for LeakyReLU. */
    static double leakyReluGain(double slope);

    /**
     * Construct with Kaiming-uniform init.
     * @param in number of input features.
     * @param out number of output features.
     * @param rng seeded generator for the weight draw.
     * @param name parameter-name prefix.
     * @param init_gain nonlinearity gain scaling the uniform bound.
     */
    Linear(std::size_t in, std::size_t out, Rng &rng,
           const std::string &name = "linear",
           double init_gain = kDefaultInitGain);

    const Matrix &forward(const Matrix &input) override;
    const Matrix &backward(const Matrix &grad_output) override;
    std::vector<Parameter *> parameters() override;

    std::size_t inputSize() const override { return in_; }
    std::size_t outputSize() const override { return out_; }

    /** Weight parameter, (out x in). */
    Parameter &weight() { return weight_; }

    /** Bias parameter, (1 x out). */
    Parameter &bias() { return bias_; }

  private:
    std::size_t in_;
    std::size_t out_;
    Parameter weight_;
    Parameter bias_;

    /** Forward output, (batch x out). */
    Matrix output_;

    /** Backward's dL/d(input), (batch x in). */
    Matrix gradInput_;

    /** W^T, (in x out): the fused forward's transposed weights. */
    Matrix weightT_;

    /**
     * View of the last training-mode forward input (owned by the
     * caller or by the previous stage; the producer's buffer outlives
     * our backward by the reverse-order backward contract). Null in
     * eval mode.
     */
    const Matrix *cachedInput_ = nullptr;
};

} // namespace vaesa::nn

#endif // VAESA_NN_LINEAR_HH
