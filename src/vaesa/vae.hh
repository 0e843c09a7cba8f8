/**
 * @file
 * The variational autoencoder at the heart of VAESA (Figure 2/3):
 * a symmetric LeakyReLU MLP encoder/decoder with Gaussian
 * reparameterization. The encoder trunk feeds two linear heads
 * producing mu and log-variance; the decoder ends in a sigmoid since
 * hardware features are normalized into [0, 1).
 */

#ifndef VAESA_VAESA_VAE_HH
#define VAESA_VAESA_VAE_HH

#include <memory>
#include <vector>

#include "nn/linear.hh"
#include "nn/sequential.hh"
#include "tensor/matrix.hh"
#include "util/rng.hh"

namespace vaesa {

/** Architecture hyperparameters of the VAE. */
struct VaeOptions
{
    /** Width of the input feature vector (6 hardware features). */
    std::size_t inputDim = 6;

    /** Hidden widths of the encoder trunk (decoder mirrors them). */
    std::vector<std::size_t> hiddenDims = {128, 64};

    /** Latent dimensionality z (paper default 4; 2 for plots). */
    std::size_t latentDim = 4;

    /** LeakyReLU negative-side slope. */
    double leakySlope = 0.01;
};

/** Encoder/decoder pair with reparameterized sampling. */
class Vae
{
  public:
    /** Construct with randomly initialized weights. */
    Vae(const VaeOptions &options, Rng &rng);

    /** Cached activations of one forward pass (caller-owned). */
    struct ForwardResult
    {
        /** Encoder means, (batch x latent). */
        Matrix mu;

        /** Encoder log-variances, (batch x latent). */
        Matrix logvar;

        /** Standard-normal noise used by reparameterization. */
        Matrix eps;

        /** Sampled latent z = mu + exp(logvar/2) * eps. */
        Matrix z;

        /** Decoder reconstruction, (batch x input). */
        Matrix recon;
    };

    /**
     * Full training-mode pass: encode, sample, decode, into a
     * caller-owned result. The result matrices are reshaped with
     * capacity retention, so repeated passes at a steady batch size
     * allocate nothing. The modules cache a view of x (and of fr.z),
     * so both must stay alive and unmodified until the matching
     * backward() returns.
     * @param x normalized input batch, (batch x input).
     * @param rng noise source for reparameterization.
     * @param sample_latent when false, z = mu (deterministic pass).
     * @param fr receives the pass's activations.
     */
    void forwardInto(const Matrix &x, Rng &rng, bool sample_latent,
                     ForwardResult &fr);

    /**
     * Back-propagate one training step. Must follow the forwardInto()
     * that produced fr; accumulates parameter gradients.
     *
     * @param fr cached forward activations.
     * @param grad_recon dL/d(recon) from the reconstruction loss.
     * @param grad_mu_kld dL/d(mu) from the (weighted) KLD term.
     * @param grad_logvar_kld dL/d(logvar) from the KLD term.
     * @param grad_z_extra extra dL/dz (from the predictors); may be
     *        empty when no predictor loss is attached.
     */
    void backward(const ForwardResult &fr, const Matrix &grad_recon,
                  const Matrix &grad_mu_kld,
                  const Matrix &grad_logvar_kld,
                  const Matrix &grad_z_extra);

    /** Encode to latent means only (inference path). */
    Matrix encodeMean(const Matrix &x);

    /**
     * Decode latent points to normalized features. Returns a
     * reference to the decoder's output buffer, valid until the
     * decoder runs again. A plain decoder forward in the current
     * train/eval mode: in training mode it replaces the decoder's
     * cached activations, so a subsequent backward() flows through
     * THIS decode (and z must stay alive until then).
     */
    const Matrix &decode(const Matrix &z);

    /** All learnable parameters (encoder, heads, decoder). */
    std::vector<nn::Parameter *> parameters();

    /** Propagate train/eval mode to every submodule. */
    void setTraining(bool training);

    /** Architecture options. */
    const VaeOptions &options() const { return options_; }

    /** Latent dimensionality. */
    std::size_t latentDim() const { return options_.latentDim; }

  private:
    VaeOptions options_;
    bool training_ = true;
    std::unique_ptr<nn::Sequential> encoderTrunk_;
    std::unique_ptr<nn::Linear> muHead_;
    std::unique_ptr<nn::Linear> logvarHead_;
    std::unique_ptr<nn::Sequential> decoder_;
    Matrix gradZ_;
    Matrix gradMu_;
    Matrix gradLogvar_;
    Matrix gradTrunk_;
};

} // namespace vaesa

#endif // VAESA_VAESA_VAE_HH
