/**
 * @file
 * Sequential container and MLP convenience builder.
 */

#ifndef VAESA_NN_SEQUENTIAL_HH
#define VAESA_NN_SEQUENTIAL_HH

#include <memory>
#include <vector>

#include "nn/module.hh"

namespace vaesa {
class Rng;
} // namespace vaesa

namespace vaesa::nn {

/**
 * A chain of modules applied in order; backward runs in reverse.
 * Adjacent widths are validated when modules are appended.
 *
 * Each stage owns its scratch buffers, so a whole-chain
 * forward/backward is allocation-free once every buffer has grown to
 * the largest batch seen. The chain passes buffer references between
 * stages (no copies); a Linear stage's cached input is a view of the
 * previous stage's output buffer, which the reverse-order backward
 * contract keeps intact for exactly as long as it is needed.
 */
class Sequential : public Module
{
  public:
    Sequential() = default;

    /** Append a stage; its input width must match the current output. */
    void add(std::unique_ptr<Module> module);

    const Matrix &forward(const Matrix &input) override;
    const Matrix &backward(const Matrix &grad_output) override;
    std::vector<Parameter *> parameters() override;

    std::size_t inputSize() const override;
    std::size_t outputSize() const override;

    /** Propagated to every stage. */
    void setTraining(bool training) override;

    /** Number of stages. */
    std::size_t stageCount() const { return stages_.size(); }

  private:
    std::vector<std::unique_ptr<Module>> stages_;
};

/** Output nonlinearity choice for makeMlp. */
enum class OutputActivation { None, Sigmoid };

/**
 * Build the paper's MLP shape: Linear / LeakyReLU stacks with an
 * optional output nonlinearity.
 *
 * Hidden Linear layers feed a LeakyReLU, so they are initialized
 * with the matching Kaiming gain sqrt(2 / (1 + leaky_slope^2)); the
 * output layer keeps Linear's default gain.
 *
 * @param in input feature width.
 * @param hidden widths of the hidden layers (may be empty).
 * @param out output width.
 * @param rng seeded generator for initialization.
 * @param output_act final nonlinearity.
 * @param leaky_slope LeakyReLU negative-side slope.
 */
std::unique_ptr<Sequential> makeMlp(
    std::size_t in, const std::vector<std::size_t> &hidden,
    std::size_t out, Rng &rng,
    OutputActivation output_act = OutputActivation::None,
    double leaky_slope = 0.01);

} // namespace vaesa::nn

#endif // VAESA_NN_SEQUENTIAL_HH
