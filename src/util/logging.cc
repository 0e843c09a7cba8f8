#include "util/logging.hh"

#include <cstring>

namespace vaesa {

namespace {

LogLevel
initialLevel()
{
    const char *env = std::getenv("VAESA_LOG");
    if (!env)
        return LogLevel::Warn;
    if (!std::strcmp(env, "silent"))
        return LogLevel::Silent;
    if (!std::strcmp(env, "warn"))
        return LogLevel::Warn;
    if (!std::strcmp(env, "info"))
        return LogLevel::Info;
    if (!std::strcmp(env, "debug"))
        return LogLevel::Debug;
    return LogLevel::Warn;
}

const LogLevel globalLevel = initialLevel();

} // namespace

LogLevel
logLevel()
{
    return globalLevel;
}

namespace detail {

void
emit(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "[vaesa:%s] %s\n", tag, msg.c_str());
    std::fflush(stderr);
}

} // namespace detail

} // namespace vaesa
