#include "nn/optim.hh"

#include <cmath>

#include "nn/serialize.hh"
#include "tensor/kernels/kernels.hh"
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
    const kernels::AdamCoefficients c{
        beta1_, beta2_, 1.0 - beta1_, 1.0 - beta2_, lr_, eps_,
        1.0 - std::pow(beta1_, stepCount_),
        1.0 - std::pow(beta2_, stepCount_)};
    for (std::size_t i = 0; i < params_.size(); ++i) {
        Parameter *p = params_[i];
        VAESA_CHECK_FINITE_ALL(p->grad, "Adam::step gradient for "
                               "parameter ", i);
        kernels::adamUpdate(p->value.size(), p->grad.data(),
                            firstMoment_[i].data(),
                            secondMoment_[i].data(), p->value.data(),
                            c);
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
