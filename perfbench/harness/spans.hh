/**
 * @file
 * Benchmark-side tracing: spans recorded around the calls the harness
 * makes into each layer of the program, kept in memory per thread and
 * written out when the run ends. A span's parent is the span open on
 * the same thread when it started, so every layer call nests under
 * the op that caused it.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One completed span. */
struct SpanRecord
{
    /** Layer the call went into ("op" for the op itself). Literal. */
    const char *layer;

    /** The call. Literal. */
    const char *name;

    std::uint32_t id;
    std::uint32_t parent; // 0 = none
    std::uint64_t startNs;
    std::uint64_t endNs;
};

/** Per-thread span log; spans nest through an open-span stack. */
class SpanLog
{
  public:
    std::uint32_t open(const char *layer, const char *name);
    void close(std::uint32_t id);

    const std::vector<SpanRecord> &records() const { return records_; }

  private:
    std::vector<SpanRecord> records_;
    std::vector<std::uint32_t> stack_;
};

/**
 * RAII span; a null log makes it free (the untraced runs pass null,
 * so they take no clock reads for tracing).
 */
class Span
{
  public:
    Span(SpanLog *log, const char *layer, const char *name)
        : log_(log), id_(log ? log->open(layer, name) : 0)
    {
    }

    ~Span()
    {
        if (log_)
            log_->close(id_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog *log_;
    std::uint32_t id_;
};

/** Per-layer totals of a set of span logs. */
struct LayerRow
{
    std::string layer;
    std::uint64_t count = 0;
    double busyMs = 0.0;
    double selfMs = 0.0;
};

/**
 * Count, busy time and self time per layer over @p logs. Self time is
 * a span's duration minus its children's. The op layer's self time
 * is the op time no span covers; it is returned as the row named
 * "uncovered". @p opMs receives the total op time.
 */
std::vector<LayerRow> layerBreakdown(
    const std::vector<const SpanLog *> &logs, double *opMs);

/** Print the breakdown table. */
void printBreakdown(const std::vector<LayerRow> &rows, double opMs);

/** Write every span as CSV (id,parent,layer,name,start_ns,end_ns). */
bool writeSpans(const std::string &path,
                const std::vector<const SpanLog *> &logs);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
