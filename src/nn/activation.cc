#include "nn/activation.hh"

#include <cmath>

#include "tensor/kernels/kernels.hh"
#include "util/logging.hh"

namespace vaesa::nn {

LeakyReLU::LeakyReLU(std::size_t width, double slope)
    : width_(width), slope_(slope)
{
    if (slope < 0.0)
        panic("LeakyReLU slope must be >= 0, got ", slope);
}

const Matrix &
LeakyReLU::forward(const Matrix &input)
{
    if (input.cols() != width_)
        panic("LeakyReLU width mismatch: ", input.cols(), " != ", width_);
    output_.copyFrom(input);
    kernels::leakyReluForward(output_.data(), output_.size(), slope_);
    return output_;
}

const Matrix &
LeakyReLU::backward(const Matrix &grad_output)
{
    if (!training())
        panic("LeakyReLU backward in eval mode");
    if (grad_output.rows() != output_.rows() ||
        grad_output.cols() != width_)
        panic("LeakyReLU backward shape mismatch");
    // slope >= 0 keeps the activation sign-preserving, so the cached
    // OUTPUT carries the branch: out > 0 iff in > 0, and NaN inputs
    // (slope-scaled to NaN in forward) fail the > test in both
    // passes. One predicate, one derivative convention: f'(0) =
    // slope.
    gradInput_.copyFrom(grad_output);
    kernels::leakyReluBackward(gradInput_.data(), output_.data(),
                               gradInput_.size(), slope_);
    return gradInput_;
}

Sigmoid::Sigmoid(std::size_t width)
    : width_(width)
{
}

const Matrix &
Sigmoid::forward(const Matrix &input)
{
    if (input.cols() != width_)
        panic("Sigmoid width mismatch: ", input.cols(), " != ", width_);
    output_.copyFrom(input);
    kernels::sigmoidForward(output_.data(), output_.size());
    return output_;
}

const Matrix &
Sigmoid::backward(const Matrix &grad_output)
{
    if (!training())
        panic("Sigmoid backward in eval mode");
    if (grad_output.rows() != output_.rows() ||
        grad_output.cols() != width_)
        panic("Sigmoid backward shape mismatch");
    gradInput_.copyFrom(grad_output);
    kernels::sigmoidBackward(gradInput_.data(), output_.data(),
                             gradInput_.size());
    return gradInput_;
}

} // namespace vaesa::nn
