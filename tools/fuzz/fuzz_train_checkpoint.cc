/**
 * @file
 * Fuzz target: training-checkpoint loader (vaesa/checkpoint.cc),
 * including the optimizer-state record and the parameter records.
 * The loader's rollback contract (failed load restores the model)
 * runs on every malformed input, so this also stresses that path.
 */

#include <cstddef>
#include <cstdint>

#include "harness.hh"
#include "nn/linear.hh"
#include "nn/optim.hh"
#include "util/rng.hh"
#include "vaesa/checkpoint.hh"

namespace {

vaesa::nn::Adam &
fuzzOptimizer()
{
    static vaesa::Rng rng(11);
    static vaesa::nn::Linear layer(3, 2, rng, "fuzz");
    static vaesa::nn::Adam optimizer(layer.parameters());
    return optimizer;
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    static const vaesa::fuzztool::FramedSpec spec{
        0x56434B50, 1}; // "VCKP" v1
    const std::string path = vaesa::fuzztool::materializeInput(
        "train_checkpoint", data, size, &spec);
    if (path.empty())
        return 0;
    (void)vaesa::loadTrainCheckpoint(path, fuzzOptimizer());
    return 0;
}
