/**
 * @file
 * Lint fixture, never compiled: a stand-in for a file of the studies
 * library (bench/studies/) that breaks each ban src/ keeps, so the
 * lint.studies_policy_fixture ctest can prove vaesa_check scans that
 * library with src/'s policy and not with the policy of the other
 * bench/ files, which allows raw clocks and ofstream.
 */

#include <chrono>
#include <fstream>
#include <mutex>

namespace vaesa_lint_fixture {

double studyScale = 1.0;

inline long
studyRawClock()
{
    return std::chrono::steady_clock::now().time_since_epoch().count();
}

inline void
studyRawWrite()
{
    std::ofstream out("study.csv");
    out << studyScale << "\n";
}

inline void
studyRawLock()
{
    static std::mutex mu;
    mu.lock();
    mu.unlock();
}

} // namespace vaesa_lint_fixture
