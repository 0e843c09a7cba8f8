#include "nn/activation.hh"

#include <cmath>

#include "tensor/kernels/kernels.hh"
#include "util/logging.hh"

namespace vaesa::nn {

namespace {

/** Copy input into slot 0 shaped like it (the activation output). */
Matrix &
copyToScratch(Matrix &dst, const Matrix &src)
{
    std::copy(src.data(), src.data() + src.size(), dst.data());
    return dst;
}

} // namespace

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
    cachedRows_ = input.rows();
    Matrix &out =
        copyToScratch(scratch(0, input.rows(), width_), input);
    kernels::leakyReluForward(out.data(), out.size(), slope_);
    return out;
}

const Matrix &
LeakyReLU::backward(const Matrix &grad_output)
{
    if (!training())
        panic("LeakyReLU backward in eval mode");
    if (grad_output.rows() != cachedRows_ ||
        grad_output.cols() != width_)
        panic("LeakyReLU backward shape mismatch");
    // slope >= 0 keeps the activation sign-preserving, so the cached
    // OUTPUT carries the branch: out > 0 iff in > 0, and NaN inputs
    // (slope-scaled to NaN in forward) fail the > test in both
    // passes. One predicate, one derivative convention: f'(0) =
    // slope.
    const Matrix &out = scratch(0, cachedRows_, width_);
    Matrix &grad =
        copyToScratch(scratch(1, cachedRows_, width_), grad_output);
    kernels::leakyReluBackward(grad.data(), out.data(), grad.size(),
                               slope_);
    return grad;
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
    cachedRows_ = input.rows();
    Matrix &out =
        copyToScratch(scratch(0, input.rows(), width_), input);
    kernels::sigmoidForward(out.data(), out.size());
    return out;
}

const Matrix &
Sigmoid::backward(const Matrix &grad_output)
{
    if (!training())
        panic("Sigmoid backward in eval mode");
    if (grad_output.rows() != cachedRows_ ||
        grad_output.cols() != width_)
        panic("Sigmoid backward shape mismatch");
    const Matrix &out = scratch(0, cachedRows_, width_);
    Matrix &grad =
        copyToScratch(scratch(1, cachedRows_, width_), grad_output);
    kernels::sigmoidBackward(grad.data(), out.data(), grad.size());
    return grad;
}

} // namespace vaesa::nn
