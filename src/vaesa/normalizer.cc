#include "vaesa/normalizer.hh"

#include <algorithm>
#include <cstdint>

#include "util/logging.hh"

namespace vaesa {

namespace {

// Keeps scaled values strictly below 1 and guards constant columns.
constexpr double spanPad = 1e-9;

} // namespace

void
Normalizer::fit(const Matrix &data)
{
    if (data.rows() == 0 || data.cols() == 0)
        panic("Normalizer::fit on empty data");
    const std::size_t d = data.cols();
    lo_.assign(d, 0.0);
    span_.assign(d, 1.0);
    for (std::size_t c = 0; c < d; ++c) {
        double mn = data(0, c);
        double mx = data(0, c);
        for (std::size_t r = 1; r < data.rows(); ++r) {
            mn = std::min(mn, data(r, c));
            mx = std::max(mx, data(r, c));
        }
        lo_[c] = mn;
        span_[c] = std::max(mx - mn, spanPad) * (1.0 + spanPad);
    }
}

std::vector<double>
Normalizer::transform(const std::vector<double> &row) const
{
    if (row.size() != lo_.size())
        panic("Normalizer::transform: width ", row.size(), " != ",
              lo_.size());
    std::vector<double> out(row.size());
    for (std::size_t c = 0; c < row.size(); ++c)
        out[c] = (row[c] - lo_[c]) / span_[c];
    return out;
}

Matrix
Normalizer::transform(const Matrix &data) const
{
    if (data.cols() != lo_.size())
        panic("Normalizer::transform: width mismatch");
    Matrix out = data;
    for (std::size_t r = 0; r < out.rows(); ++r)
        for (std::size_t c = 0; c < out.cols(); ++c)
            out(r, c) = (out(r, c) - lo_[c]) / span_[c];
    return out;
}

std::vector<double>
Normalizer::inverse(const std::vector<double> &row) const
{
    std::vector<double> out;
    inverseInto(row, out);
    return out;
}

void
Normalizer::inverseInto(const std::vector<double> &row,
                        std::vector<double> &out) const
{
    if (row.size() != lo_.size())
        panic("Normalizer::inverse: width mismatch");
    out.resize(row.size());
    for (std::size_t c = 0; c < row.size(); ++c)
        out[c] = row[c] * span_[c] + lo_[c];
}

void
Normalizer::setBounds(const std::vector<double> &lo,
                      const std::vector<double> &hi)
{
    if (lo.size() != hi.size() || lo.empty())
        panic("Normalizer::setBounds: bad bound vectors");
    lo_ = lo;
    span_.resize(lo.size());
    for (std::size_t c = 0; c < lo.size(); ++c) {
        if (hi[c] < lo[c])
            panic("Normalizer::setBounds: hi < lo in column ", c);
        span_[c] = std::max(hi[c] - lo[c], spanPad) * (1.0 + spanPad);
    }
}

void
Normalizer::serialize(ByteBuffer &out) const
{
    out.putU64(lo_.size());
    out.putBytes(lo_.data(), lo_.size() * sizeof(double));
    out.putBytes(span_.data(), span_.size() * sizeof(double));
}

Expected<Normalizer>
Normalizer::deserialize(ByteReader &in)
{
    const std::uint64_t d = in.getU64();
    if (in.failed() || d > (1u << 20))
        return makeLoadError(LoadError::Kind::Malformed, "", 0,
                             "corrupt normalizer dimension");
    Normalizer norm;
    norm.lo_.resize(d);
    norm.span_.resize(d);
    if (!in.getBytes(norm.lo_.data(), d * sizeof(double)) ||
        !in.getBytes(norm.span_.data(), d * sizeof(double)))
        return makeLoadError(LoadError::Kind::Truncated, "", 0,
                             "truncated normalizer payload");
    return norm;
}

} // namespace vaesa
