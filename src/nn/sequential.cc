#include "nn/sequential.hh"

#include "nn/activation.hh"
#include "nn/linear.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace vaesa::nn {

void
Sequential::add(std::unique_ptr<Module> module)
{
    if (!stages_.empty() &&
        stages_.back()->outputSize() != module->inputSize()) {
        panic("Sequential: stage width mismatch: ",
              stages_.back()->outputSize(), " -> ", module->inputSize());
    }
    module->setTraining(training());
    stages_.push_back(std::move(module));
}

const Matrix &
Sequential::forward(const Matrix &input)
{
    const Matrix *current = &input;
    for (auto &stage : stages_)
        current = &stage->forward(*current);
    return *current;
}

const Matrix &
Sequential::backward(const Matrix &grad_output)
{
    const Matrix *grad = &grad_output;
    for (auto it = stages_.rbegin(); it != stages_.rend(); ++it)
        grad = &(*it)->backward(*grad);
    return *grad;
}

std::vector<Parameter *>
Sequential::parameters()
{
    std::vector<Parameter *> params;
    for (auto &stage : stages_)
        for (Parameter *p : stage->parameters())
            params.push_back(p);
    return params;
}

std::size_t
Sequential::inputSize() const
{
    if (stages_.empty())
        panic("Sequential::inputSize on empty container");
    return stages_.front()->inputSize();
}

std::size_t
Sequential::outputSize() const
{
    if (stages_.empty())
        panic("Sequential::outputSize on empty container");
    return stages_.back()->outputSize();
}

void
Sequential::setTraining(bool training)
{
    Module::setTraining(training);
    for (auto &stage : stages_)
        stage->setTraining(training);
}

std::unique_ptr<Sequential>
makeMlp(std::size_t in, const std::vector<std::size_t> &hidden,
        std::size_t out, Rng &rng, OutputActivation output_act,
        double leaky_slope)
{
    auto net = std::make_unique<Sequential>();
    const double hidden_gain = Linear::leakyReluGain(leaky_slope);
    std::size_t prev = in;
    int index = 0;
    for (std::size_t width : hidden) {
        net->add(std::make_unique<Linear>(
            prev, width, rng, "fc" + std::to_string(index++),
            hidden_gain));
        net->add(std::make_unique<LeakyReLU>(width, leaky_slope));
        prev = width;
    }
    net->add(std::make_unique<Linear>(
        prev, out, rng, "fc" + std::to_string(index)));
    switch (output_act) {
      case OutputActivation::None:
        break;
      case OutputActivation::Sigmoid:
        net->add(std::make_unique<Sigmoid>(out));
        break;
    }
    return net;
}

} // namespace vaesa::nn
