/**
 * @file
 * Status and error reporting helpers in the gem5 idiom.
 *
 * inform() prints normal status, warn() flags suspicious-but-survivable
 * conditions, fatal() terminates on user error (bad configuration or
 * arguments), and panic() aborts on internal invariant violations.
 */

#ifndef VAESA_UTIL_LOGGING_HH
#define VAESA_UTIL_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace vaesa {

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Get the process-wide log level (settable via VAESA_LOG env var). */
LogLevel logLevel();

namespace detail {

/** Concatenate a parameter pack into one string via a stringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/** Emit one formatted log line to stderr. */
void emit(const char *tag, const std::string &msg);

} // namespace detail

/** Print an informational status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (logLevel() >= LogLevel::Info)
        detail::emit("info", detail::concat(std::forward<Args>(args)...));
}

/** Print a debug message (only with VAESA_LOG=debug). */
template <typename... Args>
void
debugLog(Args &&...args)
{
    if (logLevel() >= LogLevel::Debug)
        detail::emit("debug", detail::concat(std::forward<Args>(args)...));
}

/** Print a warning about suspicious but survivable behaviour. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (logLevel() >= LogLevel::Warn)
        detail::emit("warn", detail::concat(std::forward<Args>(args)...));
}

/**
 * Terminate due to a user-caused error (bad config, invalid argument).
 * Exits with status 1; does not dump core.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::emit("fatal", detail::concat(std::forward<Args>(args)...));
    std::exit(1);
}

/**
 * Terminate due to an internal bug (invariant violation). Aborts so a
 * debugger or core dump can capture the state.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emit("panic", detail::concat(std::forward<Args>(args)...));
    std::abort();
}

} // namespace vaesa

#endif // VAESA_UTIL_LOGGING_HH
