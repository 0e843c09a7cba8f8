/**
 * @file
 * Wire-protocol tests: round trips for every message type, framing
 * corruption detection, and hostile-input caps (the parser must
 * reject lying lengths before allocating or reading past the end).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../common/hex.hh"
#include "serve/protocol.hh"
#include "util/atomic_io.hh"

namespace vaesa {
namespace serve {
namespace {

Request
roundTripOk(const Request &in)
{
    const std::string frame =
        frameMessage(serializeRequest(in));
    Expected<std::string> payload = unwrapFrame(frame);
    EXPECT_TRUE(payload.ok());
    Expected<Request> out = parseRequest(payload.value());
    EXPECT_TRUE(out.ok());
    return out.value();
}

TEST(ServeProtocol, PingRoundTrips)
{
    Request in;
    in.id = 42;
    in.type = MsgType::Ping;
    in.deadlineMs = 7;
    const Request out = roundTripOk(in);
    EXPECT_EQ(out.id, 42u);
    EXPECT_EQ(out.type, MsgType::Ping);
    EXPECT_EQ(out.deadlineMs, 7u);
}

TEST(ServeProtocol, ScoreConfigRoundTrips)
{
    Request in;
    in.id = 1;
    in.type = MsgType::ScoreConfig;
    in.workload = "alexnet";
    in.config.numPes = 64;
    in.config.numMacs = 32;
    in.config.accumBufBytes = 4096;
    in.config.weightBufBytes = 8192;
    in.config.inputBufBytes = 8192;
    in.config.globalBufBytes = 131072;
    const Request out = roundTripOk(in);
    EXPECT_EQ(out.workload, "alexnet");
    EXPECT_EQ(out.config.numPes, 64);
    EXPECT_EQ(out.config.globalBufBytes, 131072);
}

TEST(ServeProtocol, DecodeLatentRoundTrips)
{
    Request in;
    in.id = 2;
    in.type = MsgType::DecodeLatent;
    in.latent = {0.5, -1.25, 0.0, 3.0};
    in.workload = "resnet50";
    const Request out = roundTripOk(in);
    EXPECT_EQ(out.latent, in.latent);
    EXPECT_EQ(out.workload, "resnet50");
}

TEST(ServeProtocol, SearchKRoundTrips)
{
    Request in;
    in.id = 3;
    in.type = MsgType::SearchK;
    in.workload = "deepbench";
    in.samples = 512;
    in.method = SearchMethod::Bo;
    in.seed = 1234567;
    const Request out = roundTripOk(in);
    EXPECT_EQ(out.samples, 512u);
    EXPECT_EQ(out.method, SearchMethod::Bo);
    EXPECT_EQ(out.seed, 1234567u);
}

TEST(ServeProtocol, ReloadRoundTrips)
{
    Request in;
    in.id = 4;
    in.type = MsgType::Reload;
    in.reloadPath = "/models/checkpoint_v2.bin";
    const Request out = roundTripOk(in);
    EXPECT_EQ(out.reloadPath, "/models/checkpoint_v2.bin");
}

TEST(ServeProtocol, ResponseRoundTrips)
{
    Response in;
    in.id = 9;
    in.type = MsgType::SearchK;
    in.status = Status::DeadlineExceeded;
    in.message = "partial best-so-far after 100/4096 samples";
    in.valid = true;
    in.latencyCycles = 1.5e6;
    in.energyPj = 2.5e9;
    in.edp = 3.75e15;
    in.bestPoint = {0.1, 0.9};
    in.bestValue = 42.5;
    in.evals = 100;
    in.generation = 3;
    in.cacheHits = 7;
    in.cacheMisses = 11;
    Expected<Response> out =
        parseResponse(serializeResponse(in));
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value().status, Status::DeadlineExceeded);
    EXPECT_EQ(out.value().message, in.message);
    EXPECT_EQ(out.value().bestPoint, in.bestPoint);
    EXPECT_EQ(out.value().evals, 100u);
    EXPECT_EQ(out.value().cacheMisses, 11u);
}

TEST(ServeProtocol, WireImageIsUnchanged)
{
    // Clients and daemons of different builds share the wire: a
    // fixed request and response must frame to these exact bytes.
    Request score;
    score.id = 0x0102030405060708ull;
    score.type = MsgType::ScoreConfig;
    score.deadlineMs = 250;
    score.workload = "resnet50";
    score.config.numPes = 64;
    score.config.numMacs = 32;
    score.config.accumBufBytes = 4096;
    score.config.weightBufBytes = 8192;
    score.config.inputBufBytes = 16384;
    score.config.globalBufBytes = 131072;
    EXPECT_EQ(testing::hex(frameMessage(serializeRequest(score))),
              "565253560100000050000000b0e6be3e080706050403020102000000"
              "fa000000400000000000000020000000000000000010000000000000"
              "00200000000000000040000000000000000002000000000008000000"
              "000000007265736e65743530");

    Response reply;
    reply.id = 0x0102030405060708ull;
    reply.type = MsgType::ScoreConfig;
    reply.status = Status::Ok;
    reply.message = "ok";
    reply.valid = true;
    reply.latencyCycles = 1.5e6;
    reply.energyPj = 2.5e9;
    reply.edp = 3.75e15;
    reply.config = score.config;
    reply.bestPoint = {0.1, -0.9};
    reply.bestValue = 42.5;
    reply.evals = 100;
    reply.generation = 3;
    reply.cacheHits = 7;
    reply.cacheMisses = 11;
    EXPECT_EQ(testing::hex(frameMessage(serializeResponse(reply))),
              "5652535601000000a60000004aa20abb080706050403020102000000"
              "0000000002000000000000006f6b010000000000000060e336410000"
              "00205fa0e24100c0d0d335a52a434000000000000000200000000000"
              "00000010000000000000002000000000000000400000000000000000"
              "02000000000002000000000000009a9999999999b93fcdcccccccccc"
              "ecbf0000000000404540640000000000000003000000000000000700"
              "0000000000000b00000000000000");
}

// ---------------------------------------------------------------- framing

TEST(ServeProtocol, BitFlipAnywhereIsDetected)
{
    Request in;
    in.type = MsgType::ScoreConfig;
    in.workload = "alexnet";
    const std::string frame =
        frameMessage(serializeRequest(in));
    // Flip one bit in every byte position: header, length, CRC, and
    // payload corruption must all be rejected.
    for (std::size_t i = 0; i < frame.size(); ++i) {
        std::string bad = frame;
        bad[i] = static_cast<char>(bad[i] ^ 0x01);
        EXPECT_FALSE(unwrapFrame(bad).ok())
            << "undetected corruption at byte " << i;
    }
}

TEST(ServeProtocol, TruncatedFrameIsRejected)
{
    Request in;
    in.type = MsgType::Ping;
    const std::string frame =
        frameMessage(serializeRequest(in));
    for (std::size_t keep = 0; keep < frame.size(); ++keep)
        EXPECT_FALSE(unwrapFrame(frame.substr(0, keep)).ok())
            << "truncation to " << keep << " bytes accepted";
}

TEST(ServeProtocol, TrailingSecondRecordIsRejected)
{
    // Two well-formed records in one frame: the framing is valid as
    // a file, but a frame must hold exactly one message.
    RecordWriter out(wireMagic, wireVersion);
    ByteBuffer payload;
    payload.putU64(1);
    payload.putU32(static_cast<std::uint32_t>(MsgType::Ping));
    payload.putU32(0);
    out.writeRecord(payload);
    out.writeRecord(payload);
    EXPECT_FALSE(unwrapFrame(out.bytes()).ok());
}

TEST(ServeProtocol, OversizedFrameIsRejectedUpFront)
{
    std::string huge(maxFrameBytes + 1, 'x');
    EXPECT_FALSE(unwrapFrame(huge).ok());
}

TEST(ServeProtocol, WrongMagicIsRejected)
{
    Request in;
    in.type = MsgType::Ping;
    std::string frame = frameMessage(serializeRequest(in));
    frame[0] = 'X';
    EXPECT_FALSE(unwrapFrame(frame).ok());
}

// ---------------------------------------------------------------- hostile

TEST(ServeProtocol, LyingLatentDimIsRejected)
{
    ByteBuffer payload;
    payload.putU64(1); // id
    payload.putU32(
        static_cast<std::uint32_t>(MsgType::DecodeLatent));
    payload.putU32(0);  // deadline
    payload.putU64(48); // claims 48 doubles...
    payload.putF64(1.0); // ...delivers one
    EXPECT_FALSE(parseRequest(payload.data()).ok());
}

TEST(ServeProtocol, LatentDimAboveCapIsRejected)
{
    ByteBuffer payload;
    payload.putU64(1);
    payload.putU32(
        static_cast<std::uint32_t>(MsgType::DecodeLatent));
    payload.putU32(0);
    payload.putU64(maxLatentDim + 1);
    for (std::size_t i = 0; i < maxLatentDim + 1; ++i)
        payload.putF64(0.0);
    EXPECT_FALSE(parseRequest(payload.data()).ok());
}

TEST(ServeProtocol, ZeroSamplesSearchIsRejected)
{
    ByteBuffer payload;
    payload.putU64(1);
    payload.putU32(static_cast<std::uint32_t>(MsgType::SearchK));
    payload.putU32(0);        // deadline
    payload.putString("alexnet");
    payload.putU32(0);        // zero budget
    payload.putU32(0);        // method
    payload.putU64(1);        // seed
    EXPECT_FALSE(parseRequest(payload.data()).ok());
}

TEST(ServeProtocol, UnknownTypeIsRejected)
{
    ByteBuffer payload;
    payload.putU64(1);
    payload.putU32(999);
    payload.putU32(0);
    EXPECT_FALSE(parseRequest(payload.data()).ok());
}

TEST(ServeProtocol, TrailingBytesAreRejected)
{
    Request in;
    in.type = MsgType::Ping;
    std::string payload = serializeRequest(in);
    payload += '\0';
    EXPECT_FALSE(parseRequest(payload).ok());
}

TEST(ServeProtocol, EmptyPayloadIsRejected)
{
    EXPECT_FALSE(parseRequest("").ok());
    EXPECT_FALSE(parseResponse("").ok());
}

} // namespace
} // namespace serve
} // namespace vaesa
