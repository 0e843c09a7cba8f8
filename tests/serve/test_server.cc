/**
 * @file
 * End-to-end daemon tests over loopback TCP: admission control,
 * per-request deadlines with partial results, graceful drain,
 * checkpoint hot-reload (including injected reload faults), and the
 * kill-mid-request guarantees -- a connection killed by an injected
 * transport fault must never poison the shared cache or wedge the
 * pools.
 *
 * The server runs in-process on its own ThreadPool thread; clients
 * talk through the serve:: transport helpers, so the whole protocol
 * path (frame, parse, dispatch, respond) is exercised for real.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "../common/temp_path.hh"
#include "arch/design_space.hh"
#include "sched/evaluator.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/atomic_io.hh"
#include "util/fault.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "vaesa/dataset.hh"
#include "vaesa/framework.hh"
#include "vaesa/serialize.hh"
#include "workload/networks.hh"
#include "workload/zoo.hh"

namespace vaesa {
namespace serve {
namespace {

/** One synchronous request/response exchange. */
Expected<Response>
roundTrip(const Socket &sock, const Request &request,
          int timeoutMs = 30000)
{
    if (auto err =
            sendFrame(sock, frameMessage(serializeRequest(request))))
        return *err;
    Expected<std::string> frame = recvFrame(sock, timeoutMs);
    if (!frame)
        return frame.error();
    Expected<std::string> payload = unwrapFrame(frame.value());
    if (!payload)
        return payload.error();
    return parseResponse(payload.value());
}

AcceleratorConfig
someConfig()
{
    AcceleratorConfig config;
    config.numPes = 64;
    config.numMacs = 32;
    config.accumBufBytes = 4096;
    config.weightBufBytes = 16384;
    config.inputBufBytes = 16384;
    config.globalBufBytes = 1 << 20;
    return config;
}

/** Spin until pred() or ~5 s pass; returns its final value. */
template <typename Pred>
bool
eventually(Pred pred)
{
    const std::uint64_t t0 = metrics::monotonicNowNs();
    while (!pred()) {
        if (metrics::monotonicNowNs() - t0 > 5ull * 1000000000ull)
            return pred();
    }
    return true;
}

/** In-process daemon on an ephemeral loopback port. */
class ServerHarness
{
  public:
    explicit ServerHarness(ServeOptions options)
        : server_(std::move(options)), runner_(1)
    {
        auto err = server_.start();
        EXPECT_FALSE(err.has_value())
            << (err ? err->describe() : "");
        done_ = runner_.submit(
            [this] { exitCode_ = server_.serve(); });
    }

    ~ServerHarness()
    {
        server_.requestShutdown();
        done_.wait();
        runner_.shutdown();
    }

    Server &server() { return server_; }

    Expected<Socket> connect()
    {
        return connectTcp(server_.port());
    }

    int finish()
    {
        server_.requestShutdown();
        done_.wait();
        return exitCode_;
    }

  private:
    Server server_;
    ThreadPool runner_;
    std::future<void> done_;
    int exitCode_ = -1;
};

ServeOptions
baseOptions()
{
    ServeOptions options;
    options.tcpPort = 0;
    options.serviceThreads = 2;
    options.evalThreads = 2;
    options.maxConnections = 4;
    options.idleTimeoutMs = 30000;
    return options;
}

/** Train-and-save a tiny framework snapshot for reload tests. */
std::string
saveTinyModel(const std::string &path)
{
    Evaluator evaluator;
    Rng rng(5);
    const Dataset data =
        DatasetBuilder(evaluator, workloadByName("alexnet").layers)
            .build(80, rng);
    FrameworkOptions options;
    options.vae.hiddenDims = {8};
    options.vae.latentDim = 2;
    options.predictorHidden = {8};
    options.train.epochs = 2;
    VaesaFramework framework(data, options, 3);
    const auto err = saveFramework(path, framework);
    EXPECT_FALSE(err.has_value());
    return path;
}

class ServeServer : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        FaultInjector::instance().reset();
    }
};

TEST_F(ServeServer, PingScoreAndStatsServeOk)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());

    Request ping;
    ping.id = 7;
    ping.type = MsgType::Ping;
    Expected<Response> pong = roundTrip(conn.value(), ping);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().status, Status::Ok);
    EXPECT_EQ(pong.value().id, 7u);

    Request score;
    score.id = 8;
    score.type = MsgType::ScoreConfig;
    score.workload = "alexnet";
    score.config = someConfig();
    Expected<Response> scored = roundTrip(conn.value(), score);
    ASSERT_TRUE(scored.ok());
    EXPECT_EQ(scored.value().status, Status::Ok);
    EXPECT_TRUE(scored.value().valid);
    EXPECT_GT(scored.value().edp, 0.0);

    Request stats;
    stats.id = 9;
    stats.type = MsgType::Stats;
    Expected<Response> reply = roundTrip(conn.value(), stats);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status, Status::Ok);
    EXPECT_GT(reply.value().cacheMisses, 0u);
}

TEST_F(ServeServer, UnknownWorkloadIsInvalidNotFatal)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());

    Request score;
    score.type = MsgType::ScoreConfig;
    score.workload = "definitely_not_a_network";
    score.config = someConfig();
    Expected<Response> reply = roundTrip(conn.value(), score);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status, Status::InvalidRequest);

    // The connection stays aligned and usable.
    Request ping;
    ping.type = MsgType::Ping;
    Expected<Response> pong = roundTrip(conn.value(), ping);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().status, Status::Ok);
}

TEST_F(ServeServer, ZooWorkloadNamesAreServable)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());

    // Zoo entries are served as the library's occurrence-counted
    // workloads: a depthwise-heavy net and a transformer score through
    // the same cached path as the Table III convs, and every reply
    // equals the library's counted roll-up bit for bit.
    std::vector<AcceleratorConfig> configs = {someConfig()};
    Rng rng(0x200);
    for (int i = 0; i < 8; ++i)
        configs.push_back(designSpace().randomConfig(rng));
    const Evaluator plain;
    unsigned id = 40;
    for (const Workload &zoo : zooWorkloads()) {
        SCOPED_TRACE(zoo.name);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            Request score;
            score.id = id++;
            score.type = MsgType::ScoreConfig;
            score.workload = zoo.name;
            score.config = configs[c];
            Expected<Response> reply = roundTrip(conn.value(), score);
            ASSERT_TRUE(reply.ok());
            EXPECT_EQ(reply.value().status, Status::Ok);
            const EvalResult want = plain.evaluateWorkload(
                harness.server().cache().snapConfig(configs[c]),
                workloadByName(zoo.name));
            EXPECT_EQ(reply.value().valid, want.valid);
            if (c == 0) { // someConfig() maps every zoo network.
                EXPECT_TRUE(want.valid);
            }
            EXPECT_EQ(reply.value().latencyCycles, want.latencyCycles);
            EXPECT_EQ(reply.value().energyPj, want.energyPj);
            EXPECT_EQ(reply.value().edp, want.edp);
        }
    }
}

TEST_F(ServeServer, PipelinedRequestsAreAnsweredInOrder)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());

    // Two requests back to back in one write: the daemon reads both
    // in one recv() and must still answer each, in order.
    Rng rng(0x301);
    const AcceleratorConfig configs[2] = {
        someConfig(), designSpace().randomConfig(rng)};
    std::string wire;
    for (int i = 0; i < 2; ++i) {
        Request score;
        score.id = 70 + i;
        score.type = MsgType::ScoreConfig;
        score.workload = "alexnet";
        score.config = configs[i];
        wire += frameMessage(serializeRequest(score));
    }
    ASSERT_FALSE(sendFrame(conn.value(), wire).has_value());

    const Evaluator plain;
    for (int i = 0; i < 2; ++i) {
        SCOPED_TRACE(i);
        Expected<std::string> frame = recvFrame(conn.value(), 5000);
        ASSERT_TRUE(frame.ok()) << frame.error().describe();
        Expected<std::string> payload = unwrapFrame(frame.value());
        ASSERT_TRUE(payload.ok());
        Expected<Response> reply = parseResponse(payload.value());
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply.value().id, 70u + i);
        EXPECT_EQ(reply.value().status, Status::Ok);
        const EvalResult want = plain.evaluateWorkload(
            harness.server().cache().snapConfig(configs[i]),
            workloadByName("alexnet"));
        EXPECT_EQ(reply.value().valid, want.valid);
        EXPECT_EQ(reply.value().latencyCycles, want.latencyCycles);
        EXPECT_EQ(reply.value().energyPj, want.energyPj);
        EXPECT_EQ(reply.value().edp, want.edp);
    }
}

TEST_F(ServeServer, DecodeWithoutModelIsInvalid)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());

    Request decode;
    decode.type = MsgType::DecodeLatent;
    decode.latent = {0.0, 0.0};
    Expected<Response> reply = roundTrip(conn.value(), decode);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status, Status::InvalidRequest);
}

TEST_F(ServeServer, GarbageBytesCloseConnectionServerSurvives)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_FALSE(
        sendFrame(conn.value(), "this is not a frame").has_value());
    // Whatever comes back (an InvalidRequest reply or a straight
    // close), the connection is done and the server is not.
    (void)recvFrame(conn.value(), 2000);

    Expected<Socket> again = harness.connect();
    ASSERT_TRUE(again.ok());
    Request ping;
    ping.type = MsgType::Ping;
    Expected<Response> pong = roundTrip(again.value(), ping);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().status, Status::Ok);
}

TEST_F(ServeServer, ExpiredDeadlineSearchReturnsPartialBestSoFar)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());

    Request search;
    search.id = 21;
    search.type = MsgType::SearchK;
    search.workload = "alexnet";
    search.samples = 4096;
    search.method = SearchMethod::Random;
    search.seed = 11;
    search.deadlineMs = 1;
    Expected<Response> reply = roundTrip(conn.value(), search);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status, Status::DeadlineExceeded);
    EXPECT_LT(reply.value().evals, 4096u);
}

TEST_F(ServeServer, ConnectionsBeyondCapGetStructuredRejection)
{
    ServeOptions options = baseOptions();
    options.maxConnections = 1;
    ServerHarness harness(options);

    Expected<Socket> first = harness.connect();
    ASSERT_TRUE(first.ok());
    Request ping;
    ping.type = MsgType::Ping;
    ASSERT_TRUE(roundTrip(first.value(), ping).ok());

    // The slot is held; the next connection must be turned away
    // with a structured REJECTED_OVERLOAD, not a hang or a crash.
    Expected<Socket> second = harness.connect();
    ASSERT_TRUE(second.ok());
    Expected<std::string> frame = recvFrame(second.value(), 5000);
    ASSERT_TRUE(frame.ok());
    Expected<std::string> payload = unwrapFrame(frame.value());
    ASSERT_TRUE(payload.ok());
    Expected<Response> reply = parseResponse(payload.value());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status, Status::RejectedOverload);
    EXPECT_GE(metrics::counter("serve.rejected_overload").value(), 1u);

    // Releasing the held slot re-opens admission.
    first.value().close();
    ASSERT_TRUE(eventually([&] {
        Expected<Socket> retry = harness.connect();
        if (!retry.ok())
            return false;
        Expected<Response> pong = roundTrip(retry.value(), ping);
        return pong.ok() && pong.value().status == Status::Ok;
    }));
}

TEST_F(ServeServer, KilledFrameReadLeavesCacheBitIdentical)
{
    ServerHarness harness(baseOptions());
    metrics::Counter &killed =
        metrics::counter("serve.killed_connections");
    const std::uint64_t killedBefore = killed.value();
    const std::uint64_t hits0 = harness.server().cache().hits();
    const std::uint64_t misses0 = harness.server().cache().misses();

    // The handler's first recvFrame on the next connection dies.
    FaultInjector::instance().arm("serve_frame_read", 1);
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(eventually(
        [&] { return killed.value() > killedBefore; }));
    FaultInjector::instance().reset();

    // No request ran: the cache is bit-identical to never-connected.
    EXPECT_EQ(harness.server().cache().hits(), hits0);
    EXPECT_EQ(harness.server().cache().misses(), misses0);

    // And the pool is not wedged.
    Expected<Socket> again = harness.connect();
    ASSERT_TRUE(again.ok());
    Request ping;
    ping.type = MsgType::Ping;
    Expected<Response> pong = roundTrip(again.value(), ping);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().status, Status::Ok);
}

TEST_F(ServeServer, KilledResponseWritePreservesCacheAndResults)
{
    ServerHarness harness(baseOptions());
    metrics::Counter &killed =
        metrics::counter("serve.killed_connections");

    // Reference result on a no-fault connection.
    Expected<Socket> ref = harness.connect();
    ASSERT_TRUE(ref.ok());
    Request score;
    score.type = MsgType::ScoreConfig;
    score.workload = "alexnet";
    score.config = someConfig();
    Expected<Response> expected = roundTrip(ref.value(), score);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(expected.value().status, Status::Ok);
    ref.value().close();

    const std::uint64_t killedBefore = killed.value();
    const std::uint64_t misses0 =
        harness.server().cache().misses();

    // Kill the connection exactly at the response write: the
    // client's own request send is write hit 1, the server's
    // response is hit 2.
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());
    FaultInjector::instance().arm("serve_frame_write", 2);
    ASSERT_FALSE(
        sendFrame(conn.value(),
                  frameMessage(serializeRequest(score)))
            .has_value());
    ASSERT_TRUE(eventually(
        [&] { return killed.value() > killedBefore; }));
    FaultInjector::instance().reset();

    // The evaluation completed before the kill; the repeat request
    // must be served fully from cache with the identical result.
    EXPECT_EQ(harness.server().cache().misses(), misses0);
    Expected<Socket> again = harness.connect();
    ASSERT_TRUE(again.ok());
    Expected<Response> replay = roundTrip(again.value(), score);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value().status, Status::Ok);
    EXPECT_EQ(replay.value().edp, expected.value().edp);
    EXPECT_EQ(replay.value().latencyCycles,
              expected.value().latencyCycles);
    EXPECT_EQ(harness.server().cache().misses(), misses0);
}

TEST_F(ServeServer, AcceptFaultDoesNotKillTheDaemon)
{
    ServerHarness harness(baseOptions());
    metrics::Counter &acceptFailures =
        metrics::counter("serve.accept_failures");
    const std::uint64_t before = acceptFailures.value();

    FaultInjector::instance().arm("serve_accept", 1);
    Expected<Socket> doomed = harness.connect();
    // The TCP connect itself succeeds; the server-side accept dies.
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(eventually(
        [&] { return acceptFailures.value() > before; }));
    FaultInjector::instance().reset();

    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());
    Request ping;
    ping.type = MsgType::Ping;
    Expected<Response> pong = roundTrip(conn.value(), ping);
    ASSERT_TRUE(pong.ok());
    EXPECT_EQ(pong.value().status, Status::Ok);
}

TEST_F(ServeServer, ReloadValidatesBeforeSwapAndFaultsKeepOldModel)
{
    const std::string modelPath = testing::uniqueTempPath(
        "vaesa_serve_model", ".bin");
    const std::string garbagePath = testing::uniqueTempPath(
        "vaesa_serve_garbage", ".bin");
    saveTinyModel(modelPath);
    ASSERT_FALSE(
        atomicWriteFile(garbagePath, "not a model").has_value());

    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());

    // Load the real model: generation 0 -> 1.
    Request reload;
    reload.type = MsgType::Reload;
    reload.reloadPath = modelPath;
    Expected<Response> loaded = roundTrip(conn.value(), reload);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().status, Status::Ok);
    EXPECT_EQ(loaded.value().generation, 1u);

    // A decodable request under generation 1.
    Request decode;
    decode.type = MsgType::DecodeLatent;
    decode.latent = {0.1, -0.2};
    Expected<Response> before = roundTrip(conn.value(), decode);
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before.value().status, Status::Ok);

    // Corrupt checkpoint: structured failure, generation unchanged.
    reload.reloadPath = garbagePath;
    Expected<Response> corrupt = roundTrip(conn.value(), reload);
    ASSERT_TRUE(corrupt.ok());
    EXPECT_EQ(corrupt.value().status, Status::ReloadFailed);
    EXPECT_EQ(harness.server().models().generation(), 1u);

    // Injected fault inside reload validation: same guarantee.
    FaultInjector::instance().arm("serve_reload", 1);
    reload.reloadPath = modelPath;
    Expected<Response> faulted = roundTrip(conn.value(), reload);
    FaultInjector::instance().reset();
    ASSERT_TRUE(faulted.ok());
    EXPECT_EQ(faulted.value().status, Status::ReloadFailed);
    EXPECT_EQ(harness.server().models().generation(), 1u);

    // The old model keeps serving, bit-identically.
    Expected<Response> after = roundTrip(conn.value(), decode);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().status, Status::Ok);
    EXPECT_EQ(after.value().edp, before.value().edp);
    EXPECT_EQ(after.value().config.numPes,
              before.value().config.numPes);

    // A genuine reload still works afterwards: generation 1 -> 2.
    Expected<Response> fresh = roundTrip(conn.value(), reload);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh.value().status, Status::Ok);
    EXPECT_EQ(fresh.value().generation, 2u);

    std::remove(modelPath.c_str());
    std::remove(garbagePath.c_str());
}

/** Distinct random configs for equivalence streams. */
std::vector<AcceleratorConfig>
randomConfigs(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<AcceleratorConfig> configs;
    configs.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        configs.push_back(designSpace().randomConfig(rng));
    return configs;
}

TEST_F(ServeServer, ConcurrentScoreRepliesBitIdenticalToSerial)
{
    // Four concurrent connections, each sending its interleaved
    // slice of the stream in order, share one memo cache: every
    // reply must equal serial scalar scoring bit-for-bit, however
    // the connections' cache probes and inserts interleave. Half the
    // stream repeats the other half, so warm hits are covered too,
    // and every third request carries a harmless large deadline.
    constexpr std::size_t kClients = 4;
    std::vector<AcceleratorConfig> configs =
        randomConfigs(16, 0xAB5EED);
    configs.insert(configs.end(), configs.begin(), configs.end());

    const Workload alexnet = workloadByName("alexnet");
    Evaluator plain;
    std::vector<EvalResult> expected;
    for (const AcceleratorConfig &config : configs)
        expected.push_back(
            plain.evaluateWorkload(config, alexnet.layers));

    ServeOptions options = baseOptions();
    options.serviceThreads = kClients;
    options.maxConnections = kClients + 1;
    ServerHarness harness(options);

    std::vector<Response> replies(configs.size());
    ThreadPool pool(kClients);
    std::vector<std::future<void>> done;
    for (std::size_t c = 0; c < kClients; ++c)
        done.push_back(pool.submit([&, c] {
            Expected<Socket> conn = harness.connect();
            EXPECT_TRUE(conn.ok());
            if (!conn.ok())
                return;
            for (std::size_t i = c; i < configs.size();
                 i += kClients) {
                Request score;
                score.id = static_cast<std::uint64_t>(i);
                score.type = MsgType::ScoreConfig;
                score.workload = "alexnet";
                score.config = configs[i];
                score.deadlineMs = (i % 3 == 0) ? 30000 : 0;
                Expected<Response> reply =
                    roundTrip(conn.value(), score);
                EXPECT_TRUE(reply.ok());
                if (reply.ok())
                    replies[i] = reply.value();
            }
        }));
    for (auto &future : done)
        future.get();
    pool.shutdown();

    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(replies[i].status, Status::Ok) << i;
        EXPECT_EQ(replies[i].valid, expected[i].valid) << i;
        // Exact double comparison: 0 ULP tolerance.
        EXPECT_EQ(replies[i].edp, expected[i].edp) << i;
        EXPECT_EQ(replies[i].latencyCycles, expected[i].latencyCycles)
            << i;
        EXPECT_EQ(replies[i].energyPj, expected[i].energyPj) << i;
    }
}

TEST_F(ServeServer, RejectedAndDeadlineRepliesAreObservable)
{
    const bool metricsWereEnabled = metrics::metricsEnabled();
    metrics::setMetricsEnabled(true);

    metrics::Counter &deadline =
        metrics::counter("serve.deadline_exceeded");
    metrics::Counter &rejected =
        metrics::counter("serve.rejected_overload");
    metrics::Histogram &requestNs =
        metrics::histogram("serve.request_ns");
    metrics::Histogram &rejectNs =
        metrics::histogram("serve.reject_ns");
    const std::uint64_t deadlineBefore = deadline.value();
    const std::uint64_t rejectedBefore = rejected.value();
    const std::uint64_t requestCountBefore = requestNs.count();
    const std::uint64_t rejectCountBefore = rejectNs.count();

    {
        ServeOptions options = baseOptions();
        options.maxConnections = 1;
        ServerHarness harness(options);
        Expected<Socket> conn = harness.connect();
        ASSERT_TRUE(conn.ok());

        // A deadline-partial reply must bump the counter AND land in
        // the request-latency histogram (the old blind spot).
        Request search;
        search.type = MsgType::SearchK;
        search.workload = "alexnet";
        search.samples = 4096;
        search.method = SearchMethod::Random;
        search.seed = 11;
        search.deadlineMs = 1;
        Expected<Response> partial = roundTrip(conn.value(), search);
        ASSERT_TRUE(partial.ok());
        EXPECT_EQ(partial.value().status, Status::DeadlineExceeded);
        EXPECT_GT(deadline.value(), deadlineBefore);
        EXPECT_TRUE(eventually(
            [&] { return requestNs.count() > requestCountBefore; }));

        // An admission rejection is equally observable: counter plus
        // its own reject-latency histogram.
        Expected<Socket> turnedAway = harness.connect();
        ASSERT_TRUE(turnedAway.ok());
        Expected<std::string> frame =
            recvFrame(turnedAway.value(), 5000);
        ASSERT_TRUE(frame.ok());
        Expected<std::string> payload = unwrapFrame(frame.value());
        ASSERT_TRUE(payload.ok());
        Expected<Response> reply = parseResponse(payload.value());
        ASSERT_TRUE(reply.ok());
        EXPECT_EQ(reply.value().status, Status::RejectedOverload);
        EXPECT_GT(rejected.value(), rejectedBefore);
        EXPECT_TRUE(eventually(
            [&] { return rejectNs.count() > rejectCountBefore; }));
    }

    metrics::setMetricsEnabled(metricsWereEnabled);
}

TEST_F(ServeServer, ShutdownMessageDrainsCleanly)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());

    Request bye;
    bye.type = MsgType::Shutdown;
    Expected<Response> reply = roundTrip(conn.value(), bye);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value().status, Status::Ok);

    EXPECT_EQ(harness.finish(), 0);
}

TEST_F(ServeServer, DrainCancelsIdleConnections)
{
    ServerHarness harness(baseOptions());
    Expected<Socket> conn = harness.connect();
    ASSERT_TRUE(conn.ok());
    Request ping;
    ping.type = MsgType::Ping;
    ASSERT_TRUE(roundTrip(conn.value(), ping).ok());

    // The connection sits idle; the drain must not wait for its
    // idle timeout (30 s here) to elapse.
    EXPECT_EQ(harness.finish(), 0);
}

} // namespace
} // namespace serve
} // namespace vaesa
