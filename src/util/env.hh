/**
 * @file
 * Environment-variable scaling knobs.
 *
 * Default experiment sizes are chosen to finish on a small machine; the
 * VAESA_* variables scale them toward paper scale (500 K dataset, 2000
 * BO samples, 3-5 seeds) without recompiling.
 */

#ifndef VAESA_UTIL_ENV_HH
#define VAESA_UTIL_ENV_HH

#include <cstdint>
#include <string>

namespace vaesa {

/** Integer env var with default; fatal() if set but unparseable. */
std::int64_t envInt(const std::string &name, std::int64_t fallback);

/** Double env var with default; fatal() if set but unparseable. */
double envDouble(const std::string &name, double fallback);

} // namespace vaesa

#endif // VAESA_UTIL_ENV_HH
