#include "util/env.hh"

#include <cstdlib>

#include "util/logging.hh"

namespace vaesa {

std::int64_t
envInt(const std::string &name, std::int64_t fallback)
{
    const char *value = std::getenv(name.c_str());
    if (!value || !*value)
        return fallback;
    char *end = nullptr;
    const long long parsed = std::strtoll(value, &end, 10);
    if (end == value || *end)
        fatal("env var ", name, "='", value, "' is not an integer");
    return parsed;
}

double
envDouble(const std::string &name, double fallback)
{
    const char *value = std::getenv(name.c_str());
    if (!value || !*value)
        return fallback;
    char *end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end)
        fatal("env var ", name, "='", value, "' is not a number");
    return parsed;
}

} // namespace vaesa
