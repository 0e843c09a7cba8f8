/**
 * @file
 * Benchmark-side helpers with no dependency on the program: the
 * percentile rule, failure accounting, metric-name validation and the
 * one-line JSON result. Unit-tested by tests/report_test.cc.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Fewest samples that must lie beyond a reported percentile. */
constexpr std::size_t minSamplesBeyond = 10;

/** Samples strictly beyond quantile @p q of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * Quantile @p q in [0, 1] of @p values (nearest rank, upper), or
 * nullopt when fewer than minSamplesBeyond samples lie beyond it.
 * The median needs 2 * minSamplesBeyond samples; p90 needs 100 and
 * p99 needs 1000.
 */
std::optional<double> percentile(std::vector<double> values, double q);

/** True when @p name matches [A-Za-z0-9][A-Za-z0-9_.-]{0,63}. */
bool validMetricName(const std::string &name);

/** True when @p unit matches [A-Za-z0-9_/%.-]{1,16}. */
bool validUnit(const std::string &unit);

/**
 * Outcome tally of one workload's ops. A refused or errored op counts
 * as failed AND as an op that missed every latency limit: it enters
 * the latency distribution as +infinity, so percentiles never improve
 * by dropping failures.
 */
class OpTally
{
  public:
    /** One op completed in @p ms milliseconds. */
    void success(double ms);

    /** One op failed or was refused. */
    void failure();

    /** Fold another tally in (per-thread tallies merge at the end). */
    void merge(const OpTally &other);

    std::uint64_t attempted() const { return ms_.size(); }
    std::uint64_t failed() const { return failed_; }

    /** failed / attempted (0 when nothing was attempted). */
    double failFraction() const;

    /** Quantile over every attempted op, failures included. */
    std::optional<double> percentileMs(double q) const;

    /** Share of attempted ops that completed within @p limitMs. */
    double withinLimit(double limitMs) const;

    /** Latencies of successful ops, in completion order per tally. */
    std::vector<double> successMs() const;

  private:
    std::vector<double> ms_;
    std::uint64_t failed_ = 0;
};

/** One metric of the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The result a run prints as its last stdout line. add() rejects a
 * bad name or unit, a duplicate, or a non-finite value by recording an
 * error; json() then marks the run incorrect.
 */
class Result
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);

    /** Record an output-check failure (the run becomes incorrect). */
    void fail(const std::string &why);

    bool correct() const { return errors_.empty(); }
    const std::vector<std::string> &errors() const { return errors_; }
    const std::vector<Metric> &metrics() const { return metrics_; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** The single-line JSON object. */
    std::string json() const;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> errors_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
