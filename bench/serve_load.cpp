/**
 * @file
 * Load/latency gate of the vaesa_serve daemon: an in-process server
 * on an ephemeral loopback port, hammered by closed-loop clients
 * with a mixed query stream (cache-warming ScoreConfig, pings,
 * deadline-carrying scores, small bounded searches), plus one
 * overload burst proving admission control answers with structured
 * REJECTED_OVERLOAD instead of hanging or crashing.
 *
 * A second, working-set phase streams pure ScoreConfig traffic on
 * resnet50 from kWsClients concurrent connections, all drawing from
 * one shared pool of kWsPool distinct configs, for kWsTrials rounds
 * (best-of QPS is reported), then once more from a single client.
 * Every reply must be bit-identical to in-process scalar scoring
 * (Evaluator::evaluateWorkload), no request may fail, and the
 * single-client p99 may not exceed the loaded p99 of the same stream
 * (10% relative, 50 us absolute slack): an idle server must never
 * hold a request back.
 *
 * Gates sustained QPS and exact p99 latency, prints the table, and
 * writes bench_out/serve_load.{csv,json} and BENCH_serve_load.json in
 * the working directory (run from the repo root to refresh the
 * checked-in copy). Exits nonzero when a gate fails.
 *
 * Env knobs:
 *   VAESA_SERVE_QUERIES          mixed-phase queries (default 100000)
 *   VAESA_SERVE_CLIENTS          mixed-phase clients (default 4)
 *   VAESA_SERVE_QPS              sustained-QPS gate (default 2000)
 *   VAESA_SERVE_P99_MS           mixed-phase p99 gate in ms
 *                                (default 50)
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "studies/common.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/env.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"

namespace {

using namespace vaesa;
using serve::MsgType;
using serve::Request;
using serve::Response;
using serve::Status;

/** Working-set phase shape. */
constexpr std::size_t kWsClients = 16;
constexpr std::size_t kWsQueries = 24000;   // per trial
constexpr std::size_t kWsLowQueries = 2000; // single client
constexpr std::size_t kWsPool = 1024;       // distinct configs
constexpr std::size_t kWsTrials = 2;

/** One synchronous request/response round trip. */
Expected<Response>
roundTrip(const serve::Socket &sock, const Request &request)
{
    if (auto err = serve::sendFrame(
            sock, serve::frameMessage(
                      serve::serializeRequest(request))))
        return *err;
    Expected<std::string> frame = serve::recvFrame(sock, 30000);
    if (!frame)
        return frame.error();
    Expected<std::string> payload =
        serve::unwrapFrame(frame.value());
    if (!payload)
        return payload.error();
    return serve::parseResponse(payload.value());
}

/** Per-client tallies. */
struct ClientStats
{
    std::vector<double> latencyMs;
    std::uint64_t ok = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
};

double
percentile(std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    const std::size_t k = static_cast<std::size_t>(
        p * static_cast<double>(values.size() - 1));
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
}

/** Run client(c) for every c in [0, clients) as one task each on
 *  @p pool, whose workers are this bench's alone (one per client, so
 *  every client's connection is open at once), and wait for all. */
template <class Client>
void
runClients(ThreadPool &pool, std::size_t clients, const Client &client)
{
    std::vector<std::future<void>> running;
    running.reserve(clients);
    const auto waitAll = [&running] {
        for (std::future<void> &done : running)
            done.wait();
    };
    try {
        for (std::size_t c = 0; c < clients; ++c)
            running.push_back(pool.submit([&client, c] { client(c); }));
    } catch (...) {
        waitAll(); // the queued clients still read @p client
        throw;
    }
    waitAll();
    for (std::future<void> &done : running)
        done.get();
}

/** One working-set stream's outcome. */
struct StreamResult
{
    double qps = 0.0;
    double p99Ms = 0.0;
    std::uint64_t errors = 0;
    /** Ok replies that differ from in-process scoring. */
    std::uint64_t mismatches = 0;
};

/**
 * Run a sustained pure-ScoreConfig stream on resnet50 against a
 * fresh server. All @p clients draw from the shared @p pool of
 * distinct configs (pick order derives from @p seedBase): first
 * touches miss and pay the full mapping search, steady state
 * revisits the working set — the regime a DSE service actually
 * sustains (search traffic re-scores candidates around promising
 * regions; BENCH_par_eval's cached scenario). Every Ok reply is
 * compared bit-for-bit against @p expected[pick].
 */
StreamResult
runScoreStream(std::size_t clients, std::size_t totalQueries,
               const std::vector<AcceleratorConfig> &pool,
               const std::vector<EvalResult> &expected,
               std::uint64_t seedBase)
{
    StreamResult result;
    serve::ServeOptions options;
    options.tcpPort = 0;
    options.serviceThreads = clients + 2;
    options.maxConnections = clients + 2;
    options.maxInflightSearch = 2;
    serve::Server server(options);
    if (auto err = server.start()) {
        std::fprintf(stderr, "working-set server start failed: %s\n",
                     err->describe().c_str());
        result.errors = totalQueries;
        return result;
    }
    ThreadPool serverThread(1);
    auto serveDone =
        serverThread.submit([&server]() { (void)server.serve(); });
    const std::uint16_t port = server.port();

    const std::size_t perClient = totalQueries / clients;
    std::vector<std::vector<double>> latency(clients);
    std::vector<std::uint64_t> errors(clients, 0);
    std::vector<std::uint64_t> mismatches(clients, 0);

    ThreadPool clientPool(clients);
    const std::uint64_t t0 = metrics::monotonicNowNs();
    runClients(clientPool, clients, [&](std::size_t c) {
        Rng rng(seedBase + 1000 + c);
        Expected<serve::Socket> conn = serve::connectTcp(port);
        if (!conn) {
            errors[c] = perClient;
            return;
        }
        latency[c].reserve(perClient);
        for (std::size_t i = 0; i < perClient; ++i) {
            const std::size_t pick = rng.index(pool.size());
            Request request;
            request.id = c * 1000000 + i;
            request.type = MsgType::ScoreConfig;
            request.workload = "resnet50";
            request.config = pool[pick];
            const std::uint64_t r0 = metrics::monotonicNowNs();
            Expected<Response> resp =
                roundTrip(conn.value(), request);
            const std::uint64_t r1 = metrics::monotonicNowNs();
            if (!resp || resp.value().status != Status::Ok) {
                ++errors[c];
                continue;
            }
            latency[c].push_back(
                static_cast<double>(r1 - r0) / 1e6);
            const Response &reply = resp.value();
            const EvalResult &want = expected[pick];
            if (reply.valid != want.valid || reply.edp != want.edp ||
                reply.latencyCycles != want.latencyCycles ||
                reply.energyPj != want.energyPj)
                ++mismatches[c];
        }
    });
    const double wallSec =
        static_cast<double>(metrics::monotonicNowNs() - t0) / 1e9;

    server.requestShutdown();
    serveDone.wait();
    serverThread.shutdown();
    clientPool.shutdown();

    std::vector<double> all;
    for (std::size_t c = 0; c < clients; ++c) {
        all.insert(all.end(), latency[c].begin(),
                   latency[c].end());
        result.errors += errors[c];
        result.mismatches += mismatches[c];
    }
    result.qps =
        static_cast<double>(all.size()) / std::max(wallSec, 1e-9);
    result.p99Ms = percentile(all, 0.99);
    return result;
}

} // namespace

int
main()
{
    const std::size_t totalQueries = static_cast<std::size_t>(
        envInt("VAESA_SERVE_QUERIES", 100000));
    const std::size_t clients = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(envInt("VAESA_SERVE_CLIENTS", 4)));
    const double qpsTarget = envDouble("VAESA_SERVE_QPS", 2000.0);
    const double p99TargetMs = envDouble("VAESA_SERVE_P99_MS", 50.0);

    serve::ServeOptions options;
    options.tcpPort = 0; // ephemeral
    options.serviceThreads = clients + 2;
    options.maxConnections = clients + 2;
    options.maxInflightSearch = 2;
    serve::Server server(options);
    if (auto err = server.start()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     err->describe().c_str());
        return 1;
    }

    ThreadPool serverThread(1);
    auto serveDone =
        serverThread.submit([&server]() { (void)server.serve(); });

    // ----- Mixed-load phase ------------------------------------------
    // Closed-loop clients, each on its own connection. The config
    // stream draws from a modest distinct set so the shared cache
    // warms exactly the way a production search service's does.
    ThreadPool clientPool(clients);
    std::vector<ClientStats> stats(clients);
    const std::size_t perClient = totalQueries / clients;
    const std::uint16_t port = server.port();

    const std::uint64_t benchT0 = metrics::monotonicNowNs();
    runClients(clientPool, clients, [&](std::size_t c) {
        Rng rng(0x5E24E5ull + c);
        std::vector<AcceleratorConfig> configs;
        for (int i = 0; i < 64; ++i)
            configs.push_back(designSpace().randomConfig(rng));
        Expected<serve::Socket> conn = serve::connectTcp(port);
        if (!conn) {
            stats[c].errors += perClient;
            return;
        }
        ClientStats &my = stats[c];
        my.latencyMs.reserve(perClient);
        for (std::size_t i = 0; i < perClient; ++i) {
            Request request;
            request.id = c * 1000000 + i;
            const std::uint64_t kind = rng.index(100);
            if (kind < 90) {
                request.type = MsgType::ScoreConfig;
                request.workload = "alexnet";
                request.config = configs[rng.index(configs.size())];
                if (kind < 4)
                    request.deadlineMs = 1; // deadline mix
            } else if (kind < 95) {
                request.type = MsgType::Ping;
            } else if (kind < 99) {
                request.type = MsgType::Stats;
            } else {
                request.type = MsgType::SearchK;
                request.workload = "alexnet";
                request.samples = 24;
                request.method = serve::SearchMethod::Random;
                request.seed = rng.next();
                request.deadlineMs = 100;
            }
            const std::uint64_t t0 = metrics::monotonicNowNs();
            Expected<Response> resp = roundTrip(conn.value(),
                                                request);
            const std::uint64_t t1 = metrics::monotonicNowNs();
            if (!resp) {
                ++my.errors;
                continue;
            }
            my.latencyMs.push_back(
                static_cast<double>(t1 - t0) / 1e6);
            switch (resp.value().status) {
            case Status::Ok:
                ++my.ok;
                break;
            case Status::DeadlineExceeded:
                ++my.deadlineExceeded;
                break;
            case Status::RejectedOverload:
                ++my.rejected;
                break;
            default:
                ++my.errors;
                break;
            }
        }
    });
    const double wallSec =
        static_cast<double>(metrics::monotonicNowNs() - benchT0) /
        1e9;

    // ----- Overload burst --------------------------------------------
    // Saturate every connection slot with held-open connections, then
    // knock: each extra connection must get a structured rejection.
    std::uint64_t burstRejections = 0;
    {
        std::vector<serve::Socket> holders;
        for (std::size_t i = 0; i < options.maxConnections + 4;
             ++i) {
            Expected<serve::Socket> conn = serve::connectTcp(port);
            if (!conn)
                continue;
            Expected<std::string> frame =
                serve::recvFrame(conn.value(), 200);
            if (frame) {
                Expected<std::string> payload =
                    serve::unwrapFrame(frame.value());
                if (payload) {
                    Expected<Response> resp =
                        serve::parseResponse(payload.value());
                    if (resp && resp.value().status ==
                                    Status::RejectedOverload) {
                        ++burstRejections;
                        continue;
                    }
                }
            }
            holders.push_back(std::move(conn.value()));
        }
    }

    server.requestShutdown();
    serveDone.wait();
    serverThread.shutdown();
    clientPool.shutdown();

    // ----- Working-set phase -----------------------------------------
    // High concurrency for sustained QPS, then one client for the
    // uncontended p99. Every reply must match in-process scoring.
    Rng poolRng(0xAB0ull);
    const std::vector<LayerShape> resnet =
        workloadByName("resnet50").layers;
    const Evaluator evaluator;
    std::vector<AcceleratorConfig> pool;
    std::vector<EvalResult> expected;
    for (std::size_t i = 0; i < kWsPool; ++i) {
        pool.push_back(designSpace().randomConfig(poolRng));
        expected.push_back(
            evaluator.evaluateWorkload(pool.back(), resnet));
    }
    // Best-of QPS over the trials: a frequency-ramping host hands
    // later trials a warmer CPU.
    StreamResult wsHigh;
    std::uint64_t wsErrors = 0, wsMismatches = 0;
    for (std::size_t t = 0; t < kWsTrials; ++t) {
        StreamResult r = runScoreStream(kWsClients, kWsQueries, pool,
                                        expected, 0xAB0ull);
        wsErrors += r.errors;
        wsMismatches += r.mismatches;
        if (t == 0 || r.qps > wsHigh.qps)
            wsHigh = r;
    }
    const StreamResult wsLow =
        runScoreStream(1, kWsLowQueries, pool, expected, 0xAB1ull);
    wsErrors += wsLow.errors;
    wsMismatches += wsLow.mismatches;
    // 10% relative with 50 us absolute slack: at sub-ms p99 a few
    // scheduler hiccups would otherwise decide the gate.
    const double wsLowP99BoundMs =
        std::max(wsHigh.p99Ms * 1.10, wsHigh.p99Ms + 0.05);
    const bool wsOk = wsErrors == 0 && wsMismatches == 0 &&
                      wsLow.p99Ms <= wsLowP99BoundMs;

    // ----- Tallies + gates -------------------------------------------
    std::vector<double> all;
    std::uint64_t ok = 0, deadline = 0, rejected = 0, errors = 0;
    for (const ClientStats &s : stats) {
        all.insert(all.end(), s.latencyMs.begin(),
                   s.latencyMs.end());
        ok += s.ok;
        deadline += s.deadlineExceeded;
        rejected += s.rejected;
        errors += s.errors;
    }
    const std::uint64_t completed = ok + deadline + rejected;
    const double qps = static_cast<double>(completed) / wallSec;
    const double p50 = percentile(all, 0.50);
    const double p99 = percentile(all, 0.99);

    const bool meetsTarget = qps >= qpsTarget &&
                             p99 <= p99TargetMs && errors == 0 &&
                             burstRejections >= 1 && wsOk;

    bench::rule();
    std::printf("serve_load: %zu queries, %zu clients, %.1f s\n",
                totalQueries, clients, wallSec);
    std::printf("  qps %.0f (target %.0f)  p50 %.3f ms  p99 %.3f ms "
                "(target %.1f)\n",
                qps, qpsTarget, p50, p99, p99TargetMs);
    std::printf("  ok %llu  deadline_exceeded %llu  rejected %llu  "
                "errors %llu  burst_rejections %llu\n",
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(deadline),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(errors),
                static_cast<unsigned long long>(burstRejections));
    std::printf("  working set @%zu clients: %.0f qps (best of %zu), "
                "p99 %.3f ms  @1 client: p99 %.3f ms (bound %.3f)\n",
                kWsClients, wsHigh.qps, kWsTrials, wsHigh.p99Ms,
                wsLow.p99Ms, wsLowP99BoundMs);
    std::printf("  working set: mismatches %llu  errors %llu\n",
                static_cast<unsigned long long>(wsMismatches),
                static_cast<unsigned long long>(wsErrors));

    CsvWriter csv(bench::csvPath("serve_load.csv"));
    csv.header({"queries", "clients", "wall_s", "qps", "p50_ms",
                "p99_ms", "ok", "deadline_exceeded", "rejected",
                "errors", "burst_rejections", "ws_qps", "ws_low_p99_ms",
                "ws_mismatches", "ws_errors"});
    csv.row({std::to_string(completed), std::to_string(clients),
             CsvWriter::cell(wallSec), CsvWriter::cell(qps),
             CsvWriter::cell(p50), CsvWriter::cell(p99),
             std::to_string(ok), std::to_string(deadline),
             std::to_string(rejected), std::to_string(errors),
             std::to_string(burstRejections),
             CsvWriter::cell(wsHigh.qps), CsvWriter::cell(wsLow.p99Ms),
             std::to_string(wsMismatches), std::to_string(wsErrors)});

    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"serve_load\",\n"
         << "  \"hw_threads\": " << ThreadPool::hardwareThreadCount()
         << ",\n"
         << "  \"queries\": " << totalQueries << ",\n"
         << "  \"clients\": " << clients << ",\n"
         << "  \"wall_s\": " << wallSec << ",\n"
         << "  \"qps\": " << qps << ",\n"
         << "  \"qps_target\": " << qpsTarget << ",\n"
         << "  \"p50_ms\": " << p50 << ",\n"
         << "  \"p99_ms\": " << p99 << ",\n"
         << "  \"p99_target_ms\": " << p99TargetMs << ",\n"
         << "  \"ok\": " << ok << ",\n"
         << "  \"deadline_exceeded\": " << deadline << ",\n"
         << "  \"rejected_overload\": " << rejected << ",\n"
         << "  \"errors\": " << errors << ",\n"
         << "  \"burst_rejections\": " << burstRejections << ",\n"
         << "  \"ws_clients\": " << kWsClients << ",\n"
         << "  \"ws_queries\": " << kWsQueries << ",\n"
         << "  \"ws_pool\": " << kWsPool << ",\n"
         << "  \"ws_trials\": " << kWsTrials << ",\n"
         << "  \"ws_qps\": " << wsHigh.qps << ",\n"
         << "  \"ws_p99_ms\": " << wsHigh.p99Ms << ",\n"
         << "  \"ws_low_p99_ms\": " << wsLow.p99Ms << ",\n"
         << "  \"ws_low_p99_bound_ms\": " << wsLowP99BoundMs << ",\n"
         << "  \"ws_errors\": " << wsErrors << ",\n"
         << "  \"ws_mismatches\": " << wsMismatches << ",\n"
         << "  \"meets_target\": "
         << (meetsTarget ? "true" : "false") << "\n}\n";
    std::ofstream(bench::csvPath("serve_load.json")) << json.str();
    std::ofstream("BENCH_serve_load.json") << json.str();

    std::printf("%s (baseline written to BENCH_serve_load.json)\n",
                meetsTarget ? "meets qps/p99/working-set targets"
                            : "MISSES qps/p99/working-set targets");
    return meetsTarget ? 0 : 1;
}
