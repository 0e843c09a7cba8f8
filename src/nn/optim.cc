#include "nn/optim.hh"

#include <cmath>

#include "nn/serialize.hh"
#include "util/contracts.hh"
#include "util/logging.hh"

namespace vaesa::nn {

namespace {

/** ShapeMismatch builder for the Adam-state loader. */
LoadError
stateError(const std::string &message)
{
    return makeLoadError(LoadError::Kind::ShapeMismatch, "", 0,
                         "optimizer state: " + message);
}

} // namespace

Adam::Adam(std::vector<Parameter *> params, double lr, double beta1,
           double beta2, double eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1),
      beta2_(beta2), eps_(eps)
{
    for (Parameter *p : params_)
        if (!p)
            panic("Adam received a null parameter");
    firstMoment_.reserve(params_.size());
    secondMoment_.reserve(params_.size());
    for (Parameter *p : params_) {
        firstMoment_.emplace_back(p->value.rows(), p->value.cols());
        secondMoment_.emplace_back(p->value.rows(), p->value.cols());
    }
}

void
Adam::zeroGrad()
{
    for (Parameter *p : params_)
        p->zeroGrad();
}

void
Adam::step()
{
    ++stepCount_;
    const double bc1 = 1.0 - std::pow(beta1_, stepCount_);
    const double bc2 = 1.0 - std::pow(beta2_, stepCount_);
    for (std::size_t i = 0; i < params_.size(); ++i) {
        Parameter *p = params_[i];
        VAESA_CHECK_FINITE_ALL(p->grad, "Adam::step gradient for "
                               "parameter ", i);
        Matrix &m = firstMoment_[i];
        Matrix &v = secondMoment_[i];
        const double *g = p->grad.data();
        double *mp = m.data();
        double *vp = v.data();
        double *w = p->value.data();
        const std::size_t n = p->value.size();
        for (std::size_t k = 0; k < n; ++k) {
            mp[k] = beta1_ * mp[k] + (1.0 - beta1_) * g[k];
            vp[k] = beta2_ * vp[k] + (1.0 - beta2_) * g[k] * g[k];
            const double m_hat = mp[k] / bc1;
            const double v_hat = vp[k] / bc2;
            w[k] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
        }
    }
}

void
Adam::serializeState(ByteBuffer &out) const
{
    out.putU64(static_cast<std::uint64_t>(stepCount_));
    out.putU64(firstMoment_.size());
    for (std::size_t i = 0; i < firstMoment_.size(); ++i) {
        putMatrix(out, firstMoment_[i]);
        putMatrix(out, secondMoment_[i]);
    }
}

std::optional<LoadError>
Adam::deserializeState(ByteReader &in)
{
    const std::uint64_t steps = in.getU64();
    const std::uint64_t count = in.getU64();
    if (in.failed() || count != firstMoment_.size())
        return stateError("Adam moment count mismatch");
    for (std::size_t i = 0; i < firstMoment_.size(); ++i)
        if (!readMatrixInto(in, firstMoment_[i]) ||
            !readMatrixInto(in, secondMoment_[i]))
            return stateError("Adam moment shape mismatch");
    stepCount_ = static_cast<long>(steps);
    return std::nullopt;
}

} // namespace vaesa::nn
