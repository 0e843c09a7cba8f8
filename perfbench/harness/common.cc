#include "common.hh"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/metrics.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/** Every per-layer metric and its unit (BENCHMARK.json per_layer). */
constexpr std::pair<const char *, const char *> perLayerMetrics[] = {
    {"serve.ping_rtt_us", "us"},
    {"serve.codec_ns", "ns"},
    {"serve.daemon_us", "us"},
    {"serve.outside_daemon_us", "us"},
    {"serve.batch_size_mean", "count"},
    {"serve.batch_wait_us", "us"},
    {"serve.hit_rtt_us", "us"},
    {"serve.miss_rtt_us", "us"},
    {"serve.requests", "count"},
    {"serve.rejected_overload", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.invalid_requests", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.shard_contention", "count"},
    {"sched.layer_evals", "count"},
    {"sched.dedup_ratio", "ratio"},
    {"sched.mapper_ns", "ns"},
    {"costmodel.ns_per_item", "ns"},
    {"dse.objective_share", "ratio"},
    {"bo.fit_ms", "ms"},
    {"bo.acq_ms", "ms"},
    {"search.distinct_frac", "ratio"},
    {"search.invalid_frac", "ratio"},
    {"vaesa.decode_us", "us"},
    {"search.eval_us", "us"},
    {"dataset.build_s", "s"},
    {"dataset.evals_per_sample", "ratio"},
    {"train.epoch_ms", "ms"},
    {"gemm.calls", "count"},
    {"gemm.flops", "count"},
    {"gemm.share", "ratio"},
    {"gemm.gflops_per_s", "GFLOP/s"},
    {"pool.busy_share", "ratio"},
    {"pool.tasks", "count"},
    {"trace.uncovered_share", "ratio"},
    {"trace.ops_ratio", "ratio"},
};

} // namespace

unsigned
hostThreads()
{
    const std::size_t n = allowedCpus().size();
    return n > 0 ? static_cast<unsigned>(n)
                 : std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    out.push_back(c);
        return out;
    }();
    return cpus;
}

void
pinThread(int tid, const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(tid, sizeof(set), &set);
}

void
rotateCaller(std::size_t k)
{
    const std::vector<int> &cpus = allowedCpus();
    if (!cpus.empty())
        pinThread(0, {cpus[k % cpus.size()]});
}

int
callerTid()
{
    return static_cast<int>(syscall(SYS_gettid));
}

CpuRotator::CpuRotator(std::vector<Group> groups)
    : groups_(std::move(groups))
{
    if (allowedCpus().size() < 2)
        return;
    apply(0);
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        for (std::size_t k = 1;; ++k) {
            if (wake_.wait_for(lock, std::chrono::milliseconds(50),
                               [this] { return stop_; }))
                return;
            apply(k);
        }
    });
}

CpuRotator::~CpuRotator()
{
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    for (const Group &g : groups_)
        for (int tid : g.tids)
            pinThread(tid, allowedCpus());
}

void
CpuRotator::apply(std::size_t k) const
{
    const std::vector<int> &cpus = allowedCpus();
    std::size_t next = k;
    for (const Group &g : groups_) {
        std::vector<int> set;
        for (std::size_t j = 0; j < std::max<std::size_t>(1, g.width);
             ++j)
            set.push_back(cpus[next++ % cpus.size()]);
        for (int tid : g.tids)
            pinThread(tid, set);
    }
}

std::vector<int>
threadIds(int pid)
{
    std::vector<int> tids;
    const std::string dir =
        pid == 0 ? "/proc/self/task" : "/proc/" + std::to_string(pid) + "/task";
    if (DIR *d = opendir(dir.c_str())) {
        while (const dirent *e = readdir(d))
            if (e->d_name[0] != '.')
                tids.push_back(std::atoi(e->d_name));
        closedir(d);
    }
    std::sort(tids.begin(), tids.end());
    return tids;
}

double
selfPeakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

void
printIdentity(const Options &opts, const std::string &threads)
{
    const char *kernel = std::getenv("VAESA_KERNEL");
    std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0);
    std::printf("perfbench: nproc %u, build %s, VAESA_KERNEL %s, git "
                "%s\n",
                hostThreads(), PERFBENCH_BUILD_TYPE,
                kernel ? kernel : "blocked (default)",
                vaesa::metrics::gitDescribe());
    std::printf("perfbench: threads: %s\n", threads.c_str());
}

std::string
describePercentile(const std::optional<double> &value,
                   std::size_t samples)
{
    char buf[96];
    if (value)
        std::snprintf(buf, sizeof(buf), "%.4f (n=%zu)", *value, samples);
    else
        std::snprintf(buf, sizeof(buf), "n/a (n=%zu)", samples);
    return buf;
}

double
overallOpsPerSec(const std::vector<Trial> &trials)
{
    double ops = 0.0, wall = 0.0;
    for (const Trial &t : trials) {
        ops += static_cast<double>(t.ops);
        wall += t.wallSec;
    }
    return wall > 0.0 ? ops / wall : 0.0;
}

void
printTrials(const std::vector<Trial> &trials)
{
    for (std::size_t i = 0; i < trials.size(); ++i) {
        const Trial &t = trials[i];
        const OpTally &tally = t.tally;
        std::printf(
            "perfbench: trial %zu: %llu ops in %.3f s, %.6g ops/s, p50 %s "
            "ms, p90 %s ms, p99 %s ms, fail_frac %.3g\n",
            i, static_cast<unsigned long long>(t.ops), t.wallSec,
            t.opsPerSec(),
            describePercentile(tally.percentileMs(0.5), tally.attempted())
                .c_str(),
            describePercentile(tally.percentileMs(0.9), tally.attempted())
                .c_str(),
            describePercentile(tally.percentileMs(0.99), tally.attempted())
                .c_str(),
            tally.failFraction());
    }
}

void
addEndToEnd(Result &result, const std::vector<Trial> &trials,
            const std::vector<double> &setups, double peakRssMib)
{
    printTrials(trials);
    double bestOps = 0.0;
    std::optional<double> bestP50, bestP90;
    for (const Trial &t : trials) {
        result.attempted += t.tally.attempted();
        result.failed += t.tally.failed();
        bestOps = std::max(bestOps, t.opsPerSec());
        const auto p50 = t.tally.percentileMs(0.5);
        const auto p90 = t.tally.percentileMs(0.9);
        if (p50 && (!bestP50 || *p50 < *bestP50))
            bestP50 = p50;
        if (p90 && (!bestP90 || *p90 < *bestP90))
            bestP90 = p90;
    }
    std::printf("perfbench: setup_s median of %zu set-ups: %.4f\n",
                setups.size(), median(setups));
    result.add("setup_s", median(setups), "s");
    result.add("ops_per_s", bestOps, "1/s");
    if (!bestP50 || !bestP90)
        result.fail("no trial had enough ops for p50 and p90");
    else {
        result.add("op_p50_ms", *bestP50, "ms");
        result.add("op_p90_ms", *bestP90, "ms");
    }
    result.add("peak_rss_mib", peakRssMib, "MiB");
}

void
addRatio(Result &result, const char *name, double num, double den,
         const char *base)
{
    const double value = den != 0.0 ? num / den : 0.0;
    std::printf("  %s = %.6g / %.6g = %.6g (%s)\n", name, num, den, value,
                base);
    result.add(name, value, "ratio");
}

void
fillMissingPerLayer(Result &result)
{
    for (const auto &[name, unit] : perLayerMetrics) {
        bool present = false;
        for (const Metric &m : result.metrics())
            present = present || m.name == name;
        if (!present)
            result.add(name, 0.0, unit);
    }
}

} // namespace perfbench
