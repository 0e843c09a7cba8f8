#include "nn/linear.hh"

#include <cmath>

#include "tensor/kernels/kernels.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace vaesa::nn {

double
Linear::leakyReluGain(double slope)
{
    return std::sqrt(2.0 / (1.0 + slope * slope));
}

Linear::Linear(std::size_t in, std::size_t out, Rng &rng,
               const std::string &name, double init_gain)
    : in_(in), out_(out),
      weight_(out, in, name + ".weight"),
      bias_(1, out, name + ".bias")
{
    if (in == 0 || out == 0)
        panic("Linear layer with zero dimension: ", in, " -> ", out);
    if (!(init_gain > 0.0))
        panic("Linear init gain must be positive, got ", init_gain);
    // Kaiming-uniform: U[-g * sqrt(3 / fan_in), g * sqrt(3 / fan_in)].
    const double bound =
        init_gain * std::sqrt(3.0 / static_cast<double>(in));
    weight_.value.randomUniform(rng, -bound, bound);
    bias_.value.fill(0.0);
}

const Matrix &
Linear::forward(const Matrix &input)
{
    if (input.cols() != in_)
        panic("Linear forward: input width ", input.cols(),
              " != ", in_);
    cachedInput_ = training() ? &input : nullptr;
    output_.resizeBuffer(input.rows(), out_);
    weightT_.resizeBuffer(in_, out_);
    kernels::linearForward(input.rows(), in_, out_, input.data(),
                           weight_.value.data(), bias_.value.data(),
                           weightT_.data(), output_.data());
    return output_;
}

const Matrix &
Linear::backward(const Matrix &grad_output)
{
    if (cachedInput_ == nullptr)
        panic("Linear backward without a training-mode forward");
    if (grad_output.cols() != out_ ||
        grad_output.rows() != cachedInput_->rows()) {
        panic("Linear backward: grad shape ", grad_output.rows(), "x",
              grad_output.cols(), " does not match forward batch");
    }
    const std::size_t batch = grad_output.rows();
    // dW += gradOut^T * input; db += column sums; dIn = gradOut * W.
    // The accumulate flag lands the weight gradient directly in the
    // Parameter accumulator -- no temporary, no extra pass.
    kernels::gemmTransA(out_, in_, batch, grad_output.data(),
                        cachedInput_->data(), weight_.grad.data(),
                        true);
    kernels::addColSums(grad_output.data(), batch, out_,
                        bias_.grad.data());
    gradInput_.resizeBuffer(batch, in_);
    kernels::gemm(batch, in_, out_, grad_output.data(),
                  weight_.value.data(), gradInput_.data());
    return gradInput_;
}

std::vector<Parameter *>
Linear::parameters()
{
    return {&weight_, &bias_};
}

} // namespace vaesa::nn
