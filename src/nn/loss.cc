#include "nn/loss.hh"

#include <cmath>

#include "util/contracts.hh"
#include "util/logging.hh"

namespace vaesa::nn {

void
mseLossInto(const Matrix &pred, const Matrix &target,
            LossResult &result)
{
    if (pred.rows() != target.rows() || pred.cols() != target.cols())
        panic("mseLoss shape mismatch: ", pred.rows(), "x", pred.cols(),
              " vs ", target.rows(), "x", target.cols());
    const double n = static_cast<double>(pred.size());
    if (n == 0.0)
        panic("mseLoss on empty matrices");

    result.grad.resizeBuffer(pred.rows(), pred.cols());
    double acc = 0.0;
    for (std::size_t r = 0; r < pred.rows(); ++r) {
        for (std::size_t c = 0; c < pred.cols(); ++c) {
            const double diff = pred(r, c) - target(r, c);
            acc += diff * diff;
            result.grad(r, c) = 2.0 * diff / n;
        }
    }
    result.value = acc / n;
    VAESA_CHECK_FINITE(result.value, "MSE loss over ", pred.rows(),
                       "x", pred.cols());
}

void
gaussianKldInto(const Matrix &mu, const Matrix &logvar,
                KldResult &result)
{
    if (mu.rows() != logvar.rows() || mu.cols() != logvar.cols())
        panic("gaussianKld shape mismatch");
    const double batch = static_cast<double>(mu.rows());
    if (batch == 0.0)
        panic("gaussianKld on empty batch");

    result.gradMu.resizeBuffer(mu.rows(), mu.cols());
    result.gradLogvar.resizeBuffer(mu.rows(), mu.cols());
    double acc = 0.0;
    for (std::size_t r = 0; r < mu.rows(); ++r) {
        for (std::size_t c = 0; c < mu.cols(); ++c) {
            const double m = mu(r, c);
            const double lv = logvar(r, c);
            const double ev = std::exp(lv);
            acc += -0.5 * (1.0 + lv - m * m - ev);
            result.gradMu(r, c) = m / batch;
            result.gradLogvar(r, c) = 0.5 * (ev - 1.0) / batch;
        }
    }
    result.value = acc / batch;
    VAESA_CHECK_FINITE(result.value, "Gaussian KLD over batch of ",
                       mu.rows());
}

} // namespace vaesa::nn
