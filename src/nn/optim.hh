/**
 * @file
 * The Adam optimizer (the trainer's only optimizer) over a Parameter
 * list.
 */

#ifndef VAESA_NN_OPTIM_HH
#define VAESA_NN_OPTIM_HH

#include <optional>
#include <vector>

#include "nn/module.hh"
#include "util/atomic_io.hh"

namespace vaesa::nn {

/**
 * Adam optimizer (Kingma & Ba) with bias correction, over an
 * externally-owned parameter set.
 */
class Adam
{
  public:
    /**
     * @param params parameters to update; must outlive the optimizer.
     * @param lr learning rate.
     * @param beta1 first-moment decay.
     * @param beta2 second-moment decay.
     * @param eps denominator stabilizer.
     */
    explicit Adam(std::vector<Parameter *> params, double lr = 1e-3,
                  double beta1 = 0.9, double beta2 = 0.999,
                  double eps = 1e-8);

    /** Apply one update from the accumulated gradients. */
    void step();

    /** Zero every parameter gradient. */
    void zeroGrad();

    /** The managed parameters. */
    const std::vector<Parameter *> &params() const { return params_; }

    /** Current learning rate. */
    double learningRate() const { return lr_; }

    /** Change the learning rate (for schedules). */
    void setLearningRate(double lr) { lr_ = lr; }

    /**
     * Append the step counter and moment estimates to a checkpoint
     * payload, so a resumed run continues the exact update sequence
     * of an uninterrupted one.
     */
    void serializeState(ByteBuffer &out) const;

    /**
     * Restore state written by serializeState() for the same model.
     * @return nullopt on success, ShapeMismatch otherwise.
     */
    std::optional<LoadError> deserializeState(ByteReader &in);

  private:
    std::vector<Parameter *> params_;
    double lr_;
    double beta1_;
    double beta2_;
    double eps_;
    long stepCount_ = 0;
    std::vector<Matrix> firstMoment_;
    std::vector<Matrix> secondMoment_;
};

} // namespace vaesa::nn

#endif // VAESA_NN_OPTIM_HH
