/**
 * @file
 * Loss functions of the VAESA training objective (Equations 1-2):
 * mean-squared-error reconstruction/prediction losses and the
 * closed-form Gaussian KL divergence.
 */

#ifndef VAESA_NN_LOSS_HH
#define VAESA_NN_LOSS_HH

#include "tensor/matrix.hh"

namespace vaesa::nn {

/** Value and input-gradient of a loss evaluation. */
struct LossResult
{
    /** Scalar loss (already averaged over the batch). */
    double value;

    /** dL/d(prediction), same shape as the prediction. */
    Matrix grad;
};

/**
 * Mean squared error, averaged over all elements:
 * L = mean((pred - target)^2), written into a caller-owned result.
 * The gradient buffer is reshaped with capacity retention, so
 * repeated calls at a steady batch size allocate nothing.
 */
void mseLossInto(const Matrix &pred, const Matrix &target,
                 LossResult &result);

/** Gradients of the Gaussian KLD w.r.t.\ mu and log-variance. */
struct KldResult
{
    /** Scalar KLD averaged over the batch. */
    double value;

    /** dL/d(mu). */
    Matrix gradMu;

    /** dL/d(logvar). */
    Matrix gradLogvar;
};

/**
 * KL divergence of N(mu, diag(exp(logvar))) from N(0, I), closed form,
 * summed over latent dimensions and averaged over the batch:
 * KLD = -0.5 * mean_batch sum_dims(1 + logvar - mu^2 - exp(logvar)),
 * written into a caller-owned result (allocation-free at a steady
 * batch size, like mseLossInto).
 */
void gaussianKldInto(const Matrix &mu, const Matrix &logvar,
                     KldResult &result);

} // namespace vaesa::nn

#endif // VAESA_NN_LOSS_HH
