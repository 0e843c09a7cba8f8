#include "serve/protocol.hh"

#include "util/atomic_io.hh"

namespace vaesa {
namespace serve {

namespace {

/** Parse-error shorthand (the wire has no file name or line). */
LoadError
wireError(LoadError::Kind kind, std::string message)
{
    return makeLoadError(kind, "", 0, std::move(message));
}

void
putConfig(ByteBuffer &out, const AcceleratorConfig &config)
{
    for (int p = 0; p < numHwParams; ++p)
        out.putU64(static_cast<std::uint64_t>(
            config.value(static_cast<HwParam>(p))));
}

AcceleratorConfig
getConfig(ByteReader &in)
{
    AcceleratorConfig config;
    for (int p = 0; p < numHwParams; ++p)
        config.setValue(static_cast<HwParam>(p),
                        static_cast<std::int64_t>(in.getU64()));
    return config;
}

} // namespace

// Request payload layout (all fields little-endian):
//   u64 id; u32 type; u32 deadlineMs;
// then per type:
//   Ping/Stats/Shutdown: nothing
//   ScoreConfig:  6 x u64 config values; string workload
//   DecodeLatent: u64 dim; dim x f64; string workload (may be empty)
//   SearchK:      string workload; u32 samples; u32 method; u64 seed
//   Reload:       string path (may be empty = server default)
// A parser consuming fewer or more bytes than the payload holds is a
// framing error (atEnd() must hold).

std::string
serializeRequest(const Request &request)
{
    ByteBuffer out;
    // An upper bound on every type's payload: one allocation.
    out.reserve(16 + numHwParams * 8 + 8 * (request.latent.size() + 4) +
                request.workload.size() + request.reloadPath.size());
    out.putU64(request.id);
    out.putU32(static_cast<std::uint32_t>(request.type));
    out.putU32(request.deadlineMs);
    switch (request.type) {
    case MsgType::Ping:
    case MsgType::Stats:
    case MsgType::Shutdown:
        break;
    case MsgType::ScoreConfig:
        putConfig(out, request.config);
        out.putString(request.workload);
        break;
    case MsgType::DecodeLatent:
        out.putU64(request.latent.size());
        for (double z : request.latent)
            out.putF64(z);
        out.putString(request.workload);
        break;
    case MsgType::SearchK:
        out.putString(request.workload);
        out.putU32(request.samples);
        out.putU32(static_cast<std::uint32_t>(request.method));
        out.putU64(request.seed);
        break;
    case MsgType::Reload:
        out.putString(request.reloadPath);
        break;
    }
    return out.release();
}

Expected<Request>
parseRequest(const std::string &payload)
{
    ByteReader in(payload.data(), payload.size());
    Request request;
    request.id = in.getU64();
    const std::uint32_t rawType = in.getU32();
    request.deadlineMs = in.getU32();
    if (in.failed())
        return wireError(LoadError::Kind::Truncated,
                         "request header truncated");
    if (rawType < static_cast<std::uint32_t>(MsgType::Ping) ||
        rawType > static_cast<std::uint32_t>(MsgType::Shutdown))
        return wireError(LoadError::Kind::Malformed,
                         "unknown request type " +
                             std::to_string(rawType));
    request.type = static_cast<MsgType>(rawType);

    switch (request.type) {
    case MsgType::Ping:
    case MsgType::Stats:
    case MsgType::Shutdown:
        break;
    case MsgType::ScoreConfig:
        request.config = getConfig(in);
        request.workload = in.getString(maxWorkloadNameLen);
        break;
    case MsgType::DecodeLatent: {
        const std::uint64_t dim = in.getU64();
        if (in.failed() || dim == 0 || dim > maxLatentDim)
            return wireError(LoadError::Kind::Malformed,
                             "latent dimension out of range");
        request.latent.resize(static_cast<std::size_t>(dim));
        for (double &z : request.latent)
            z = in.getF64();
        request.workload = in.getString(maxWorkloadNameLen);
        break;
    }
    case MsgType::SearchK: {
        request.workload = in.getString(maxWorkloadNameLen);
        request.samples = in.getU32();
        const std::uint32_t rawMethod = in.getU32();
        request.seed = in.getU64();
        if (in.failed())
            return wireError(LoadError::Kind::Truncated,
                             "search request truncated");
        if (request.samples == 0 ||
            request.samples > maxSearchSamplesWire)
            return wireError(LoadError::Kind::Malformed,
                             "sample budget out of range");
        if (rawMethod >
            static_cast<std::uint32_t>(SearchMethod::LatentRandom))
            return wireError(LoadError::Kind::Malformed,
                             "unknown search method " +
                                 std::to_string(rawMethod));
        request.method = static_cast<SearchMethod>(rawMethod);
        break;
    }
    case MsgType::Reload:
        request.reloadPath = in.getString(maxPathLen);
        break;
    }
    if (in.failed())
        return wireError(LoadError::Kind::Truncated,
                         "request body truncated");
    if (!in.atEnd())
        return wireError(LoadError::Kind::Malformed,
                         "trailing bytes after request body");
    return request;
}

// Response payload layout:
//   u64 id; u32 type; u32 status; string message;
//   u32 valid; f64 latency; f64 energy; f64 edp;
//   6 x u64 config; u64 dim; dim x f64 bestPoint; f64 bestValue;
//   u64 evals; u64 generation; u64 cacheHits; u64 cacheMisses

std::string
serializeResponse(const Response &response)
{
    ByteBuffer out;
    out.reserve(16 + 8 + response.message.size() + 4 + 3 * 8 +
                numHwParams * 8 + 8 + 8 * response.bestPoint.size() +
                8 + 4 * 8);
    out.putU64(response.id);
    out.putU32(static_cast<std::uint32_t>(response.type));
    out.putU32(static_cast<std::uint32_t>(response.status));
    out.putString(response.message);
    out.putU32(response.valid ? 1 : 0);
    out.putF64(response.latencyCycles);
    out.putF64(response.energyPj);
    out.putF64(response.edp);
    putConfig(out, response.config);
    out.putU64(response.bestPoint.size());
    for (double x : response.bestPoint)
        out.putF64(x);
    out.putF64(response.bestValue);
    out.putU64(response.evals);
    out.putU64(response.generation);
    out.putU64(response.cacheHits);
    out.putU64(response.cacheMisses);
    return out.release();
}

Expected<Response>
parseResponse(const std::string &payload)
{
    ByteReader in(payload.data(), payload.size());
    Response response;
    response.id = in.getU64();
    const std::uint32_t rawType = in.getU32();
    const std::uint32_t rawStatus = in.getU32();
    response.message = in.getString(maxMessageLen);
    response.valid = in.getU32() != 0;
    response.latencyCycles = in.getF64();
    response.energyPj = in.getF64();
    response.edp = in.getF64();
    response.config = getConfig(in);
    const std::uint64_t dim = in.getU64();
    if (in.failed() || dim > maxLatentDim)
        return wireError(LoadError::Kind::Malformed,
                         "response best-point dimension out of range");
    response.bestPoint.resize(static_cast<std::size_t>(dim));
    for (double &x : response.bestPoint)
        x = in.getF64();
    response.bestValue = in.getF64();
    response.evals = in.getU64();
    response.generation = in.getU64();
    response.cacheHits = in.getU64();
    response.cacheMisses = in.getU64();
    if (in.failed())
        return wireError(LoadError::Kind::Truncated,
                         "response truncated");
    if (!in.atEnd())
        return wireError(LoadError::Kind::Malformed,
                         "trailing bytes after response body");
    if (rawType < static_cast<std::uint32_t>(MsgType::Ping) ||
        rawType > static_cast<std::uint32_t>(MsgType::Shutdown))
        return wireError(LoadError::Kind::Malformed,
                         "unknown response type");
    if (rawStatus >
        static_cast<std::uint32_t>(Status::ReloadFailed))
        return wireError(LoadError::Kind::Malformed,
                         "unknown response status");
    response.type = static_cast<MsgType>(rawType);
    response.status = static_cast<Status>(rawStatus);
    return response;
}

std::string
frameMessage(const std::string &payload)
{
    RecordWriter writer(wireMagic, wireVersion);
    writer.writeRecord(payload);
    return writer.release();
}

Expected<std::string>
unwrapFrame(const std::string &frame)
{
    if (frame.size() > maxFrameBytes)
        return wireError(LoadError::Kind::Malformed,
                         "frame exceeds size cap");
    RecordReader reader(frame, "wire");
    std::uint32_t version = 0;
    if (auto err = reader.readHeader(wireMagic, wireVersion,
                                     wireVersion, &version))
        return *err;
    Expected<std::string> payload = reader.readRecord();
    if (!payload)
        return payload.error();
    if (!reader.atEnd())
        return wireError(LoadError::Kind::Malformed,
                         "more than one record in frame");
    return payload;
}

} // namespace serve
} // namespace vaesa
