/**
 * @file
 * Core abstractions of the neural-network library: learnable
 * parameters and the Module forward/backward interface.
 *
 * The library is deliberately small: VAESA's models are plain MLPs, so
 * a module-based design with explicit backward passes (each module
 * caches whatever its gradient needs) is simpler and faster than a
 * general autodiff tape, and gradients are exact by construction.
 *
 * forward()/backward() return references to scratch matrices each
 * module owns as plain members. They are reshaped per batch
 * (Matrix::resizeBuffer, Matrix::copyFrom) in storage that only
 * grows, so a steady-state training step performs no heap
 * allocation. A returned reference is valid until the SAME module
 * runs the same pass again (another module's passes leave it alone);
 * callers that need the values across another pass of this module
 * must copy them out (Matrix::copyFrom reuses capacity).
 */

#ifndef VAESA_NN_MODULE_HH
#define VAESA_NN_MODULE_HH

#include <string>
#include <vector>

#include "tensor/matrix.hh"

namespace vaesa::nn {

/**
 * A learnable tensor with its gradient accumulator.
 *
 * Optimizers own no state inside Parameter; they index parameters by
 * position in the list a model exposes, which is stable for a given
 * architecture.
 */
struct Parameter
{
    /** Construct with a shape; value and grad are zero-initialized. */
    Parameter(std::size_t rows, std::size_t cols, std::string name)
        : value(rows, cols), grad(rows, cols), name(std::move(name))
    {}

    /** Current weights. */
    Matrix value;

    /** Accumulated gradient of the loss w.r.t.\ value. */
    Matrix grad;

    /** Human-readable identifier for debugging and serialization. */
    std::string name;

    /** Reset the gradient accumulator to zero. */
    void zeroGrad() { grad.fill(0.0); }
};

/**
 * Interface of a differentiable computation stage.
 *
 * forward() consumes a (batch x in) matrix and produces (batch x out);
 * backward() consumes dL/d(output) and returns dL/d(input), adding
 * parameter gradients into the module's Parameters. backward() must be
 * called after the forward() whose intermediates it needs, with a
 * matching batch size, and only in training mode: eval-mode forward
 * skips gradient caching entirely (setTraining(false) is the
 * inference fast path) and backward() then panics.
 */
class Module
{
  public:
    Module() = default;
    virtual ~Module() = default;

    // Not copyable: a Linear's cached input points into the previous
    // stage's output buffer, which a copy would share.
    Module(const Module &) = delete;
    Module &operator=(const Module &) = delete;

    /**
     * Run the stage on a batch; in training mode, caches
     * intermediates for backward.
     * @return reference to the module-owned output buffer, valid
     *         until this module's next forward().
     */
    virtual const Matrix &forward(const Matrix &input) = 0;

    /**
     * Back-propagate through the cached forward pass.
     * @param grad_output dL/d(output), same shape as forward's result.
     * @return dL/d(input) in a module-owned buffer, valid until this
     *         module's next backward().
     */
    virtual const Matrix &backward(const Matrix &grad_output) = 0;

    /** Learnable parameters of this stage (possibly empty). */
    virtual std::vector<Parameter *> parameters() { return {}; }

    /** Number of input features. */
    virtual std::size_t inputSize() const = 0;

    /** Number of output features. */
    virtual std::size_t outputSize() const = 0;

    /**
     * Toggle training mode (the default). Eval mode skips gradient
     * caching; backward() is rejected until training is re-enabled.
     */
    virtual void setTraining(bool training) { training_ = training; }

    /** Whether gradient intermediates are being cached. */
    bool training() const { return training_; }

    /** Zero all parameter gradients. */
    void
    zeroGrad()
    {
        for (Parameter *p : parameters())
            p->zeroGrad();
    }

  private:
    bool training_ = true;
};

} // namespace vaesa::nn

#endif // VAESA_NN_MODULE_HH
