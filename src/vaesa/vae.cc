#include "vaesa/vae.hh"

#include <cmath>

#include "nn/activation.hh"
#include "util/logging.hh"

namespace vaesa {

Vae::Vae(const VaeOptions &options, Rng &rng)
    : options_(options)
{
    if (options_.latentDim == 0 || options_.inputDim == 0)
        fatal("Vae: zero input or latent dimensionality");

    // Encoder trunk: input -> hidden dims, LeakyReLU throughout
    // (including after the last hidden layer, before the heads).
    // Hidden layers feed LeakyReLUs, so they get the matching
    // Kaiming gain; the mu/logvar heads keep the default.
    encoderTrunk_ = std::make_unique<nn::Sequential>();
    const double hidden_gain =
        nn::Linear::leakyReluGain(options_.leakySlope);
    std::size_t prev = options_.inputDim;
    int index = 0;
    for (std::size_t width : options_.hiddenDims) {
        encoderTrunk_->add(std::make_unique<nn::Linear>(
            prev, width, rng, "enc" + std::to_string(index++),
            hidden_gain));
        encoderTrunk_->add(std::make_unique<nn::LeakyReLU>(
            width, options_.leakySlope));
        prev = width;
    }
    if (options_.hiddenDims.empty())
        fatal("Vae: encoder needs at least one hidden layer");

    muHead_ = std::make_unique<nn::Linear>(
        prev, options_.latentDim, rng, "mu");
    logvarHead_ = std::make_unique<nn::Linear>(
        prev, options_.latentDim, rng, "logvar");

    // Decoder mirrors the encoder; sigmoid output keeps features in
    // (0, 1), matching the normalized input domain.
    std::vector<std::size_t> reversed(options_.hiddenDims.rbegin(),
                                      options_.hiddenDims.rend());
    decoder_ = nn::makeMlp(options_.latentDim, reversed,
                           options_.inputDim, rng,
                           nn::OutputActivation::Sigmoid,
                           options_.leakySlope);
}

void
Vae::forwardInto(const Matrix &x, Rng &rng, bool sample_latent,
                 ForwardResult &fr)
{
    const Matrix &trunk = encoderTrunk_->forward(x);
    fr.mu.copyFrom(muHead_->forward(trunk));
    fr.logvar.copyFrom(logvarHead_->forward(trunk));

    fr.eps.resizeBuffer(fr.mu.rows(), fr.mu.cols());
    if (sample_latent)
        fr.eps.randomNormal(rng, 0.0, 1.0);
    else
        fr.eps.fill(0.0);

    fr.z.copyFrom(fr.mu);
    for (std::size_t r = 0; r < fr.z.rows(); ++r) {
        for (std::size_t c = 0; c < fr.z.cols(); ++c) {
            fr.z(r, c) += std::exp(0.5 * fr.logvar(r, c)) *
                          fr.eps(r, c);
        }
    }
    fr.recon.copyFrom(decoder_->forward(fr.z));
}

void
Vae::backward(const ForwardResult &fr, const Matrix &grad_recon,
              const Matrix &grad_mu_kld, const Matrix &grad_logvar_kld,
              const Matrix &grad_z_extra)
{
    // Through the decoder into z.
    gradZ_.copyFrom(decoder_->backward(grad_recon));
    if (grad_z_extra.size() > 0)
        gradZ_.add(grad_z_extra);

    // Through reparameterization: z = mu + exp(logvar/2) * eps.
    gradMu_.copyFrom(gradZ_);
    gradMu_.add(grad_mu_kld);
    gradLogvar_.copyFrom(grad_logvar_kld);
    for (std::size_t r = 0; r < gradZ_.rows(); ++r) {
        for (std::size_t c = 0; c < gradZ_.cols(); ++c) {
            gradLogvar_(r, c) +=
                gradZ_(r, c) * fr.eps(r, c) * 0.5 *
                std::exp(0.5 * fr.logvar(r, c));
        }
    }

    // Through the heads into the shared trunk.
    gradTrunk_.copyFrom(muHead_->backward(gradMu_));
    gradTrunk_.add(logvarHead_->backward(gradLogvar_));
    encoderTrunk_->backward(gradTrunk_);
}

Matrix
Vae::encodeMean(const Matrix &x)
{
    // Run in eval mode so no stage caches a view of the (possibly
    // temporary) input; restore the previous mode afterwards.
    if (training_) {
        encoderTrunk_->setTraining(false);
        muHead_->setTraining(false);
    }
    Matrix mean = muHead_->forward(encoderTrunk_->forward(x));
    if (training_) {
        encoderTrunk_->setTraining(true);
        muHead_->setTraining(true);
    }
    return mean;
}

const Matrix &
Vae::decode(const Matrix &z)
{
    return decoder_->forward(z);
}

std::vector<nn::Parameter *>
Vae::parameters()
{
    std::vector<nn::Parameter *> params;
    for (nn::Parameter *p : encoderTrunk_->parameters())
        params.push_back(p);
    for (nn::Parameter *p : muHead_->parameters())
        params.push_back(p);
    for (nn::Parameter *p : logvarHead_->parameters())
        params.push_back(p);
    for (nn::Parameter *p : decoder_->parameters())
        params.push_back(p);
    return params;
}

void
Vae::setTraining(bool training)
{
    training_ = training;
    encoderTrunk_->setTraining(training);
    muHead_->setTraining(training);
    logvarHead_->setTraining(training);
    decoder_->setTraining(training);
}

} // namespace vaesa
