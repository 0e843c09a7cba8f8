#include "spans.hh"

#include <cstdio>
#include <map>
#include <unordered_map>

#include "common.hh"

namespace perfbench {

std::uint32_t
SpanLog::open(const char *layer, const char *name)
{
    const auto id = static_cast<std::uint32_t>(records_.size() + 1);
    records_.push_back({layer, name, id,
                        stack_.empty() ? 0u : stack_.back(), nowNs(),
                        0});
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(std::uint32_t id)
{
    records_[id - 1].endNs = nowNs();
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::vector<LayerRow>
layerBreakdown(const std::vector<const SpanLog *> &logs, double *opMs)
{
    std::map<std::string, LayerRow> rows;
    double op = 0.0;
    for (const SpanLog *log : logs) {
        const std::vector<SpanRecord> &recs = log->records();
        std::vector<double> childMs(recs.size() + 1, 0.0);
        for (const SpanRecord &r : recs)
            if (r.parent != 0)
                childMs[r.parent] +=
                    static_cast<double>(r.endNs - r.startNs) / 1e6;
        for (const SpanRecord &r : recs) {
            const double ms =
                static_cast<double>(r.endNs - r.startNs) / 1e6;
            const bool isOp = std::string(r.layer) == "op";
            LayerRow &row = rows[isOp ? "uncovered" : r.layer];
            row.layer = isOp ? "uncovered" : r.layer;
            if (isOp)
                op += ms;
            ++row.count;
            row.busyMs += ms;
            row.selfMs += ms - childMs[r.id];
        }
    }
    if (opMs)
        *opMs = op;
    std::vector<LayerRow> out;
    for (auto &[name, row] : rows)
        out.push_back(row);
    return out;
}

void
printBreakdown(const std::vector<LayerRow> &rows, double opMs)
{
    std::printf("  %-22s %10s %12s %12s %8s\n", "layer", "count",
                "busy_ms", "self_ms", "self/op");
    for (const LayerRow &row : rows) {
        // The op layer's busy time is the op time; only its self time
        // (what no child span covers) is its own.
        std::printf("  %-22s %10llu %12.3f %12.3f %7.1f%%\n",
                    row.layer.c_str(),
                    static_cast<unsigned long long>(row.count),
                    row.busyMs, row.selfMs,
                    opMs > 0.0 ? 100.0 * row.selfMs / opMs : 0.0);
    }
    std::printf("  %-22s %10s %12.3f\n", "op total", "", opMs);
}

bool
writeSpans(const std::string &path,
           const std::vector<const SpanLog *> &logs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "thread,id,parent,layer,name,start_ns,end_ns\n");
    for (std::size_t t = 0; t < logs.size(); ++t)
        for (const SpanRecord &r : logs[t]->records())
            std::fprintf(f, "%zu,%u,%u,%s,%s,%llu,%llu\n", t, r.id,
                         r.parent, r.layer, r.name,
                         static_cast<unsigned long long>(r.startNs),
                         static_cast<unsigned long long>(r.endNs));
    return std::fclose(f) == 0;
}

} // namespace perfbench
