/**
 * @file
 * Wire protocol of the vaesa_serve daemon: CRC-framed,
 * length-prefixed binary messages over a Unix or loopback TCP
 * stream.
 *
 * Every message travels as ONE record of the checksummed record
 * framing from util/atomic_io.hh:
 *
 *   frame  := magic:u32 version:u32 payloadSize:u32 crc32:u32 payload
 *
 * i.e. a complete framed "file" image holding exactly one record, so
 * the wire format and the on-disk formats share a single framing
 * implementation (and a single fuzz surface -- tools/fuzz fuzzes
 * unwrapFrame() + parseRequest() directly). Corruption anywhere in a
 * frame is detected before any field is interpreted.
 *
 * Payloads are little-endian ByteBuffer layouts with hostile-input
 * caps on every variable-length field; parseRequest()/parseResponse()
 * never trust a length they did not bound first. All parse entry
 * points return Expected<> -- a malformed frame is a structured
 * error, never a crash or an allocation bomb.
 */

#ifndef VAESA_SERVE_PROTOCOL_HH
#define VAESA_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/design_space.hh"
#include "util/load_error.hh"

namespace vaesa {
namespace serve {

/** Frame magic: "VSRV". */
constexpr std::uint32_t wireMagic = 0x56535256u;

/** Current protocol version. */
constexpr std::uint32_t wireVersion = 1;

/** Hard cap on one frame (header + record + payload) on the wire. */
constexpr std::size_t maxFrameBytes = 1u << 20;

/** Largest latent vector a request may carry. */
constexpr std::size_t maxLatentDim = 64;

/** Longest workload name a request may carry. */
constexpr std::size_t maxWorkloadNameLen = 64;

/** Longest checkpoint path a reload request may carry. */
constexpr std::size_t maxPathLen = 4096;

/** Longest human-readable message in a response. */
constexpr std::size_t maxMessageLen = 4096;

/** Largest per-request sample budget the wire format accepts (the
 *  server clamps further via its own options). */
constexpr std::uint32_t maxSearchSamplesWire = 1u << 20;

/** Request kinds. */
enum class MsgType : std::uint32_t {
    /** Liveness check; echoes Ok. */
    Ping = 1,

    /** Score one accelerator configuration on a named workload. */
    ScoreConfig = 2,

    /** Decode a latent point to a configuration (and score it when
     *  a workload name is given). Requires a loaded model. */
    DecodeLatent = 3,

    /** Run a bounded search and return the best design found. */
    SearchK = 4,

    /** Validate + atomically swap in a new model checkpoint. */
    Reload = 5,

    /** Serving counters (cache hits/misses, model generation). */
    Stats = 6,

    /** Ask the daemon to drain and exit. */
    Shutdown = 7,
};

/** Search algorithms selectable by SearchK. */
enum class SearchMethod : std::uint32_t {
    /** Uniform random over the 6-D input box. */
    Random = 0,

    /** Bayesian optimization over the input box. */
    Bo = 1,

    /** Random search over the model's latent box (needs a model). */
    LatentRandom = 2,
};

/** Response status codes (the structured part of every reply). */
enum class Status : std::uint32_t {
    /** Request served completely. */
    Ok = 0,

    /** Admission control turned the request away; retry later. */
    RejectedOverload = 1,

    /** The deadline expired; any result fields are best-so-far. */
    DeadlineExceeded = 2,

    /** The request was well-framed but semantically invalid. */
    InvalidRequest = 3,

    /** The server failed internally; the connection stays usable. */
    InternalError = 4,

    /** The daemon is draining and accepts no further work. */
    ShuttingDown = 5,

    /** Reload validation failed; the old model keeps serving. */
    ReloadFailed = 6,
};

/** One decoded request. Fields are zero/empty unless the type uses
 *  them (see the per-type layout in protocol.cc). */
struct Request
{
    /** Client-chosen id, echoed verbatim in the response. */
    std::uint64_t id = 0;

    /** Request kind. */
    MsgType type = MsgType::Ping;

    /** Per-request deadline in milliseconds; 0 means none. */
    std::uint32_t deadlineMs = 0;

    /** ScoreConfig: the configuration to score. */
    AcceleratorConfig config;

    /** DecodeLatent: the latent point. */
    std::vector<double> latent;

    /** ScoreConfig/DecodeLatent/SearchK: workload name (may be empty
     *  for DecodeLatent, meaning decode without scoring). */
    std::string workload;

    /** SearchK: evaluation budget. */
    std::uint32_t samples = 0;

    /** SearchK: algorithm. */
    SearchMethod method = SearchMethod::Random;

    /** SearchK: rng seed. */
    std::uint64_t seed = 0;

    /** Reload: checkpoint path (empty = the server's startup path). */
    std::string reloadPath;
};

/** One decoded response. Every response carries the full body; the
 *  fields a request type does not produce are zero. */
struct Response
{
    /** Echo of Request::id (0 for unsolicited rejections). */
    std::uint64_t id = 0;

    /** Echo of the request type (Ping for unsolicited replies). */
    MsgType type = MsgType::Ping;

    /** Outcome. */
    Status status = Status::Ok;

    /** Human-readable detail (error text, stats rendering). */
    std::string message;

    /** ScoreConfig/DecodeLatent: whether the design mapped. */
    bool valid = false;

    /** ScoreConfig/DecodeLatent: total latency in cycles. */
    double latencyCycles = 0.0;

    /** ScoreConfig/DecodeLatent: total energy in pJ. */
    double energyPj = 0.0;

    /** ScoreConfig/DecodeLatent: energy-delay product. */
    double edp = 0.0;

    /** DecodeLatent/SearchK: the decoded / best configuration. */
    AcceleratorConfig config;

    /** SearchK: best point found (box or latent coordinates). */
    std::vector<double> bestPoint;

    /** SearchK: best objective value found. */
    double bestValue = 0.0;

    /** SearchK: evaluations actually performed. */
    std::uint64_t evals = 0;

    /** Stats/Reload: model generation currently serving. */
    std::uint64_t generation = 0;

    /** Stats: cache hits so far. */
    std::uint64_t cacheHits = 0;

    /** Stats: cache misses so far. */
    std::uint64_t cacheMisses = 0;
};

/** Serialize a request payload (no framing). */
std::string serializeRequest(const Request &request);

/** Serialize a response payload (no framing). */
std::string serializeResponse(const Response &response);

/**
 * Parse one request payload (the bytes unwrapFrame() returned).
 * Every variable-length field is bounds-checked; trailing bytes are
 * corruption.
 */
Expected<Request> parseRequest(const std::string &payload);

/** Parse one response payload. */
Expected<Response> parseResponse(const std::string &payload);

/** Wrap a payload into a complete one-record frame image. */
std::string frameMessage(const std::string &payload);

/**
 * Validate a complete frame image (magic, version, record CRC,
 * exactly one record) and return its payload. This is the single
 * framing validator shared by the socket layer and the fuzz target.
 */
Expected<std::string> unwrapFrame(const std::string &frame);

} // namespace serve
} // namespace vaesa

#endif // VAESA_SERVE_PROTOCOL_HH
