/**
 * @file
 * Shared plumbing of the benchmark harness: run options, run identity,
 * clocks, memory readings, and the per-workload entry points.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "report.hh"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Directory of the vaesa_serve binary. */
    std::string binDir;

    /** Directory for manifests and span dumps. */
    std::string outDir;
};

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nanoseconds on the steady clock since an arbitrary epoch. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Hardware threads available to this process. */
unsigned hostThreads();

/**
 * CPU placement. The benchmark rotates its busy threads across every
 * allowed CPU at op boundaries, so each run samples every CPU equally
 * instead of whichever ones the scheduler happened to favour: on a
 * shared virtual host, CPUs differ in speed by ~10% for the length of
 * a run, which otherwise shows up as run-to-run spread.
 */
const std::vector<int> &allowedCpus();

/** Pin thread @p tid (0 = the caller) to the CPUs in @p cpus. */
void pinThread(int tid, const std::vector<int> &cpus);

/** Pin the calling thread to allowedCpus()[k % n]. */
void rotateCaller(std::size_t k);

/** Kernel thread id of the caller. */
int callerTid();

/** Thread ids of process @p pid (0 = this process). */
std::vector<int> threadIds(int pid);

/**
 * Rotates groups of threads across the allowed CPUs on a timer. At
 * step k, group g gets the @p width CPUs that follow the earlier
 * groups' CPUs, starting at CPU k; so the groups never share a CPU
 * (while their widths fit) and each visits every CPU equally often.
 * The destructor stops the timer and unpins every thread.
 */
class CpuRotator
{
  public:
    struct Group
    {
        std::vector<int> tids;
        std::size_t width = 1;
    };

    explicit CpuRotator(std::vector<Group> groups);
    ~CpuRotator();

    CpuRotator(const CpuRotator &) = delete;
    CpuRotator &operator=(const CpuRotator &) = delete;

  private:
    void apply(std::size_t k) const;

    std::vector<Group> groups_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
    std::thread thread_; // declared last: uses the members above
};

/** Peak resident set of this process, MiB. */
double selfPeakRssMib();

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Geometric mean of positive @p values (0 when empty). */
double geomean(const std::vector<double> &values);

/**
 * Print the run identity: nproc, build type, kernel selection, git
 * describe, seed and the workload's own thread/connection counts.
 */
void printIdentity(const Options &opts, const std::string &threads);

/** "value (n=count)" for a reported percentile, or "n/a" when the
 *  sample rule withholds it. */
std::string describePercentile(const std::optional<double> &value,
                               std::size_t samples);

/** Trials per run: every end-to-end metric is the best of these. */
constexpr std::size_t trialsPerRun = 4;

/**
 * One timed trial of a workload: its ops' times and its throughput.
 * A run measures several trials back to back and reports each
 * end-to-end time as the best trial's (highest ops/s, lowest p50,
 * lowest p90): the host this runs on is shared, and interference from
 * its other tenants only ever slows a trial down.
 */
struct Trial
{
    OpTally tally;
    std::uint64_t ops = 0;
    double wallSec = 0.0;

    double
    opsPerSec() const
    {
        return wallSec > 0.0 ? static_cast<double>(ops) / wallSec : 0.0;
    }
};

/** Throughput of all @p trials together. */
double overallOpsPerSec(const std::vector<Trial> &trials);

/** Print every trial's throughput and percentiles. */
void printTrials(const std::vector<Trial> &trials);

/**
 * Print every trial, set attempted/failed from all of them, and add
 * the end-to-end metrics: setup_s (median of @p setups), ops_per_s,
 * op_p50_ms and op_p90_ms (each the best trial's), peak_rss_mib.
 */
void addEndToEnd(Result &result, const std::vector<Trial> &trials,
                 const std::vector<double> &setups, double peakRssMib);

/**
 * Add ratio metric @p name = @p num / @p den (0 when @p den is 0) and
 * print it with its base, e.g. "cache.hit_ratio = 930 / 1000 (hits /
 * lookups)".
 */
void addRatio(Result &result, const char *name, double num, double den,
              const char *base);

/** Zero-filled per-layer metrics a workload does not exercise, so the
 *  traced result always names every per-layer metric. */
void fillMissingPerLayer(Result &result);

int runServeScore(const Options &opts, Result &result);
int runSearchVaeBo(const Options &opts, Result &result);
int runSearchRandom(const Options &opts, Result &result);
int runTrain(const Options &opts, Result &result);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
