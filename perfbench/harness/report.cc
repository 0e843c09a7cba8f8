#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

std::size_t
samplesBeyond(std::size_t n, double q)
{
    if (n == 0)
        return 0;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    return n - 1 - std::min(index, n - 1);
}

std::optional<double>
percentile(std::vector<double> values, double q)
{
    if (q < 0.0 || q > 1.0 ||
        samplesBeyond(values.size(), q) < minSamplesBeyond)
        return std::nullopt;
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(const std::string &unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9') || c == '_' || c == '/' ||
               c == '%' || c == '.' || c == '-';
    });
}

void
OpTally::success(double ms)
{
    ms_.push_back(ms);
}

void
OpTally::failure()
{
    ms_.push_back(std::numeric_limits<double>::infinity());
    ++failed_;
}

void
OpTally::merge(const OpTally &other)
{
    ms_.insert(ms_.end(), other.ms_.begin(), other.ms_.end());
    failed_ += other.failed_;
}

double
OpTally::failFraction() const
{
    return ms_.empty() ? 0.0
                       : static_cast<double>(failed_) /
                             static_cast<double>(ms_.size());
}

std::optional<double>
OpTally::percentileMs(double q) const
{
    return percentile(ms_, q);
}

double
OpTally::withinLimit(double limitMs) const
{
    if (ms_.empty())
        return 0.0;
    const auto within = std::count_if(
        ms_.begin(), ms_.end(), [&](double v) { return v <= limitMs; });
    return static_cast<double>(within) /
           static_cast<double>(ms_.size());
}

std::vector<double>
OpTally::successMs() const
{
    std::vector<double> out;
    out.reserve(ms_.size() - failed_);
    for (double v : ms_)
        if (std::isfinite(v))
            out.push_back(v);
    return out;
}

void
Result::add(const std::string &name, double value,
            const std::string &unit)
{
    if (!validMetricName(name)) {
        fail("bad metric name '" + name + "'");
        return;
    }
    if (!validUnit(unit)) {
        fail("bad unit '" + unit + "' for " + name);
        return;
    }
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        return;
    }
    for (const Metric &m : metrics_) {
        if (m.name == name) {
            fail("duplicate metric " + name);
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

void
Result::fail(const std::string &why)
{
    errors_.push_back(why);
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
        if (i > 0)
            out += ", ";
        out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
