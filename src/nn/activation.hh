/**
 * @file
 * Element-wise activation modules: LeakyReLU (the paper's choice for
 * the VAE and predictor MLPs) and Sigmoid (output head for [0,1)
 * features).
 *
 * Both cache only their own output buffer: LeakyReLU with slope
 * in (0, 1] is sign-preserving, so its backward branches on the
 * output's sign, and Sigmoid's derivative is a function of the
 * output. backward() scales a copy of the incoming gradient in a
 * second member buffer.
 */

#ifndef VAESA_NN_ACTIVATION_HH
#define VAESA_NN_ACTIVATION_HH

#include "nn/module.hh"

namespace vaesa::nn {

/**
 * LeakyReLU: x for x > 0, slope * x otherwise.
 *
 * Forward and backward share the single predicate (value > 0), so
 * at exactly x = 0 both take the slope branch (f(0) = 0, f'(0) =
 * slope) and a NaN input gets slope-scaled in both passes -- the
 * historical mismatch (forward on input > 0, backward on input <= 0)
 * disagreed for NaN.
 */
class LeakyReLU : public Module
{
  public:
    /**
     * @param width feature width.
     * @param slope negative-side slope; must be >= 0 so the
     *        activation never flips a sign (out > 0 iff in > 0,
     *        which backward's output-side branch relies on).
     */
    explicit LeakyReLU(std::size_t width, double slope = 0.01);

    const Matrix &forward(const Matrix &input) override;
    const Matrix &backward(const Matrix &grad_output) override;

    std::size_t inputSize() const override { return width_; }
    std::size_t outputSize() const override { return width_; }

    /** Negative-side slope. */
    double slope() const { return slope_; }

  private:
    std::size_t width_;
    double slope_;
    Matrix output_;
    Matrix gradInput_;
};

/** Logistic sigmoid, 1 / (1 + e^-x). */
class Sigmoid : public Module
{
  public:
    explicit Sigmoid(std::size_t width);

    const Matrix &forward(const Matrix &input) override;
    const Matrix &backward(const Matrix &grad_output) override;

    std::size_t inputSize() const override { return width_; }
    std::size_t outputSize() const override { return width_; }

  private:
    std::size_t width_;
    Matrix output_;
    Matrix gradInput_;
};

} // namespace vaesa::nn

#endif // VAESA_NN_ACTIVATION_HH
