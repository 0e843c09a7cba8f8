#include "dse/search_state.hh"

#include "util/atomic_io.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/state_io.hh"

namespace vaesa {

namespace {

constexpr std::uint32_t searchMagic = 0x56535243; // "VSRC"
constexpr std::uint32_t searchVersion = 1;

// Traces and points beyond these are corruption, not search runs.
constexpr std::uint64_t maxTraceLen = 1u << 26;
constexpr std::uint64_t maxPointDim = 1u << 16;

Expected<SearchSnapshot>
loadSearchSnapshotFile(const std::string &path)
{
    Expected<std::string> bytes = readFileBytes(path);
    if (!bytes)
        return bytes.error();
    RecordReader in(bytes.value(), path);
    std::uint32_t version = 0;
    if (auto err = in.readHeader(searchMagic, searchVersion,
                                 searchVersion, &version))
        return *err;

    Expected<std::string> meta_record = in.readRecord();
    if (!meta_record)
        return meta_record.error();
    ByteReader meta(meta_record.value().data(),
                    meta_record.value().size());
    SearchSnapshot snapshot;
    const std::uint32_t driver = meta.getU32();
    if (driver == 2)
        return in.makeError(LoadError::Kind::Malformed,
                            "search driver tag 2 (the retired genetic "
                            "search) cannot be resumed");
    if (driver != static_cast<std::uint32_t>(SearchDriver::Random) &&
        driver != static_cast<std::uint32_t>(SearchDriver::BayesOpt))
        return in.makeError(LoadError::Kind::Malformed,
                            "unknown search driver tag");
    snapshot.driver = static_cast<SearchDriver>(driver);
    if (!readRngState(meta, snapshot.rng) || !meta.atEnd())
        return in.makeError(LoadError::Kind::Malformed,
                            "corrupt snapshot metadata record");

    Expected<std::string> trace_record = in.readRecord();
    if (!trace_record)
        return trace_record.error();
    ByteReader trace_reader(trace_record.value().data(),
                            trace_record.value().size());
    const std::uint64_t count = trace_reader.getU64();
    if (trace_reader.failed() || count > maxTraceLen)
        return in.makeError(LoadError::Kind::Malformed,
                            "corrupt trace length");
    // Every point needs at least its u64 dimension plus the f64
    // value; bounding the declared count by the record payload keeps
    // a hostile CRC-valid file from driving a multi-gigabyte
    // reserve() before per-point validation runs (found by fuzzing).
    if (count > trace_reader.remaining() / (2 * sizeof(double)))
        return in.makeError(LoadError::Kind::Malformed,
                            "trace length exceeds record payload");
    snapshot.trace.points.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t dim = trace_reader.getU64();
        if (trace_reader.failed() || dim > maxPointDim)
            return in.makeError(LoadError::Kind::Malformed,
                                "corrupt trace point");
        TracePoint point;
        point.x.resize(dim);
        if (!trace_reader.getBytes(point.x.data(),
                                   dim * sizeof(double)))
            return in.makeError(LoadError::Kind::Truncated,
                                "truncated trace point");
        point.value = trace_reader.getF64();
        snapshot.trace.points.push_back(std::move(point));
    }
    if (trace_reader.failed() || !trace_reader.atEnd())
        return in.makeError(LoadError::Kind::Malformed,
                            "corrupt trace record");

    Expected<std::string> payload_record = in.readRecord();
    if (!payload_record)
        return payload_record.error();
    snapshot.payload = std::move(payload_record.value());
    if (!in.atEnd())
        return in.makeError(LoadError::Kind::Malformed,
                            "trailing bytes after snapshot payload");
    return snapshot;
}

} // namespace

std::optional<LoadError>
saveSearchSnapshot(const std::string &path,
                   const SearchSnapshot &snapshot)
{
    RecordWriter out(searchMagic, searchVersion);

    ByteBuffer meta;
    meta.putU32(static_cast<std::uint32_t>(snapshot.driver));
    putRngState(meta, snapshot.rng);
    out.writeRecord(meta);

    ByteBuffer trace;
    trace.putU64(snapshot.trace.points.size());
    for (const TracePoint &point : snapshot.trace.points) {
        trace.putU64(point.x.size());
        trace.putBytes(point.x.data(),
                       point.x.size() * sizeof(double));
        trace.putF64(point.value);
    }
    out.writeRecord(trace);

    ByteBuffer payload;
    payload.putBytes(snapshot.payload.data(),
                     snapshot.payload.size());
    out.writeRecord(payload);

    faultCheck("search_snapshot_save");
    return atomicWriteFileWithRotation(path, out.bytes());
}

Expected<SearchSnapshot>
loadSearchSnapshot(const std::string &path, SearchDriver driver)
{
    Expected<SearchSnapshot> result =
        loadWithFallback<SearchSnapshot>(path, loadSearchSnapshotFile);
    if (result && result.value().driver != driver)
        return makeLoadError(
            LoadError::Kind::ShapeMismatch, path, 0,
            "snapshot was written by a different search driver");
    return result;
}

std::optional<SearchSnapshot>
resumeSearch(const SearchCheckpointConfig &config, SearchDriver driver)
{
    if (config.path.empty())
        return std::nullopt;
    if (config.every == 0)
        panic("SearchCheckpointConfig: every must be >= 1");
    Expected<SearchSnapshot> snapshot =
        loadSearchSnapshot(config.path, driver);
    if (!snapshot) {
        if (snapshot.error().kind != LoadError::Kind::OpenFailed)
            warn("ignoring unusable search snapshot: ",
                 snapshot.error().describe());
        return std::nullopt;
    }
    return std::move(snapshot.value());
}

} // namespace vaesa
