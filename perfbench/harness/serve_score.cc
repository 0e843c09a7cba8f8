/**
 * @file
 * serve_score: the shipped vaesa_serve daemon as a child process,
 * driven by closed-loop connections sending ScoreConfig on resnet50.
 * Requests draw from a working set scored once during set-up; one
 * request in missOneIn, drawn at random, carries a never-seen config,
 * so the cache also takes inserts and the batch → evaluator →
 * scheduler → cost-model path runs on the miss share.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "common.hh"
#include "replay.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "spans.hh"
#include "util/metrics.hh"
#include "util/rng.hh"
#include "workload/networks.hh"

extern char **environ;

namespace perfbench {

namespace {

using namespace vaesa;
using serve::MsgType;
using serve::Request;
using serve::Response;
using serve::Status;

constexpr std::size_t workingSetSize = 1024;
/**
 * A request is a miss with probability 1 / missOneIn, drawn per request.
 * The daemon coalesces the two connections' requests into one batch,
 * so a hit batched with a miss waits for the miss. Between 1.6% (no
 * pairing) and 3.1% (full pairing) of requests therefore wait for the
 * miss path: p50 and p90 stay inside the hit path however the pairing
 * goes, and p99 follows the miss path. A miss share near 10% would put
 * p90 on the knee between the two paths, where it moves with the
 * pairing and so with the host's load.
 */
constexpr std::uint64_t missOneIn = 64;
constexpr std::size_t clients = 2;
constexpr std::size_t setupRepeats = 5;

/**
 * Requests per second of --seconds, over all connections. The run
 * sends a fixed number of requests (about --seconds long at the
 * measured ~16-20k requests/s), so every run inserts the same number
 * of never-seen configs into the daemon's cache and peak RSS compares
 * like with like.
 */
constexpr double requestsPerSecond = 16000.0;

/** Length of the untimed warm phase before the timed one. */
constexpr double warmSeconds = 1.0;
constexpr std::size_t pingCount = 2000;
constexpr const char *workloadName = "resnet50";

/** Daemon thread counts: clients plus daemon workers within nproc. */
struct DaemonShape
{
    std::size_t evalThreads;
    std::size_t serviceThreads;
    std::size_t maxConnections;
};

DaemonShape
daemonShape()
{
    const std::size_t n = hostThreads();
    return {std::clamp<std::size_t>(n > clients ? n - clients : 1, 1, 2),
            clients, clients + 2};
}

using ConfigKey = std::array<std::int64_t, numHwParams>;

ConfigKey
keyOf(const AcceleratorConfig &config)
{
    return designSpace().toIndices(config);
}

bool
sameReply(const EvalResult &expect, const Response &got)
{
    return got.valid == expect.valid &&
           got.latencyCycles == expect.latencyCycles &&
           got.energyPj == expect.energyPj && got.edp == expect.edp;
}

/** The shipped daemon as a child process. */
class Daemon
{
  public:
    Daemon() = default;
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    bool
    start(const Options &opts, const DaemonShape &shape)
    {
        manifest_ = opts.outDir + "/serve_manifest.json";
        std::remove(manifest_.c_str());
        const std::string bin = opts.binDir + "/vaesa_serve";
        const std::string log = opts.outDir + "/vaesa_serve.log";
        std::vector<std::string> args = {
            bin, "--port", "0", "--eval-threads",
            std::to_string(shape.evalThreads), "--service-threads",
            std::to_string(shape.serviceThreads), "--max-connections",
            std::to_string(shape.maxConnections), "--manifest-out",
            manifest_};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        int out[2];
        if (::pipe(out) != 0)
            return false;
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, out[1], 1);
        posix_spawn_file_actions_addclose(&actions, out[0]);
        posix_spawn_file_actions_addopen(&actions, 2, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        const int rc = posix_spawn(&pid_, bin.c_str(), &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(out[1]);
        if (rc != 0) {
            pid_ = -1;
            ::close(out[0]);
            std::fprintf(stderr, "cannot start %s: %s\n", bin.c_str(),
                         std::strerror(rc));
            return false;
        }
        // The daemon flushes "listening on 127.0.0.1:PORT" once bound.
        std::string line;
        const double deadline = nowSec() + 30.0;
        while (line.find('\n') == std::string::npos &&
               nowSec() < deadline) {
            pollfd pfd{out[0], POLLIN, 0};
            if (::poll(&pfd, 1, 100) <= 0)
                continue;
            char buf[256];
            const ssize_t n = ::read(out[0], buf, sizeof(buf));
            if (n <= 0)
                break;
            line.append(buf, static_cast<std::size_t>(n));
        }
        ::close(out[0]);
        const std::string tag = "listening on 127.0.0.1:";
        const std::size_t at = line.find(tag);
        if (at == std::string::npos)
            return false;
        port_ = static_cast<std::uint16_t>(
            std::stoi(line.substr(at + tag.size())));
        return true;
    }

    /** SIGTERM, wait for the drain, read peak RSS and the manifest. */
    bool
    stop(double *peakRssMib, std::string *manifestText)
    {
        if (pid_ <= 0)
            return false;
        ::kill(pid_, SIGTERM);
        int status = 0;
        rusage usage{};
        const pid_t done = ::wait4(pid_, &status, 0, &usage);
        pid_ = -1;
        if (done < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
            return false;
        if (peakRssMib)
            *peakRssMib = static_cast<double>(usage.ru_maxrss) / 1024.0;
        if (manifestText) {
            std::ifstream in(manifest_);
            std::stringstream ss;
            ss << in.rdbuf();
            *manifestText = ss.str();
        }
        return true;
    }

    std::uint16_t port() const { return port_; }
    int pid() const { return pid_; }

  private:
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    std::string manifest_;
};

/** A counter value, or a histogram's count and sum, from a manifest. */
struct ManifestValue
{
    double value = 0.0;
    double count = 0.0;
    double sum = 0.0;
};

ManifestValue
manifestValue(const std::string &text, const std::string &name)
{
    ManifestValue v;
    const std::string key = "\"" + name + "\": ";
    const std::size_t at = text.find(key);
    if (at == std::string::npos)
        return v;
    const char *p = text.c_str() + at + key.size();
    if (*p == '{') {
        std::sscanf(p, "{\"count\": %lf, \"sum\": %lf", &v.count, &v.sum);
    } else {
        v.value = std::strtod(p, nullptr);
    }
    return v;
}

/** One synchronous round trip, codec and transport timed apart. */
struct Exchange
{
    bool ok = false;
    Response response;
    std::uint64_t codecNs = 0;
};

Exchange
exchange(const serve::Socket &sock, const Request &request,
         SpanLog *log)
{
    Exchange ex;
    const std::uint64_t t0 = log ? nowNs() : 0;
    std::string frame;
    {
        const Span span(log, "serve.protocol", "encode");
        frame = serve::frameMessage(serve::serializeRequest(request));
    }
    const std::uint64_t t1 = log ? nowNs() : 0;
    Expected<std::string> reply = std::string();
    {
        const Span span(log, "serve.net", "send_recv");
        if (serve::sendFrame(sock, frame))
            return ex;
        reply = serve::recvFrame(sock, 30000);
    }
    if (!reply)
        return ex;
    const std::uint64_t t2 = log ? nowNs() : 0;
    {
        const Span span(log, "serve.protocol", "decode");
        Expected<std::string> payload = serve::unwrapFrame(reply.value());
        if (!payload)
            return ex;
        Expected<Response> parsed = serve::parseResponse(payload.value());
        if (!parsed)
            return ex;
        ex.response = std::move(parsed.value());
    }
    if (log)
        ex.codecNs = (t1 - t0) + (nowNs() - t2);
    ex.ok = ex.response.status == Status::Ok &&
            ex.response.id == request.id;
    return ex;
}

/** Shared read-only state of the traffic generators. */
struct Traffic
{
    std::vector<AcceleratorConfig> workingSet;
    std::vector<EvalResult> expected;
    std::set<ConfigKey> workingKeys;
    std::uint64_t seed = 0;
};

/** One connection's closed-loop outcome. */
struct ClientRun
{
    OpTally tally;
    std::vector<double> hitMs;
    std::vector<double> missMs;
    std::vector<std::pair<AcceleratorConfig, Response>> fresh;
    std::uint64_t sent = 0;
    std::uint64_t okReplies = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t codecNs = 0;
    std::uint64_t codecCount = 0;
    SpanLog log;
};

void
runClient(std::uint16_t port, const Traffic &traffic, std::size_t c,
          std::uint64_t phase, std::uint64_t requests, bool traced,
          ClientRun &out)
{
    Rng rng(traffic.seed * 1000003ull + phase * 101ull + c);
    Expected<serve::Socket> conn = serve::connectTcp(port);
    if (!conn) {
        out.tally.failure();
        return;
    }
    SpanLog *log = traced ? &out.log : nullptr;
    std::set<ConfigKey> seen;
    for (std::uint64_t i = 0; i < requests; ++i) {
        const bool miss = rng.index(missOneIn) == 0;
        Request request;
        request.id = (phase << 40) | (c << 32) | i;
        request.type = MsgType::ScoreConfig;
        request.workload = workloadName;
        std::size_t j = 0;
        if (miss) {
            do {
                request.config = designSpace().randomConfig(rng);
            } while (traffic.workingKeys.count(keyOf(request.config)) ||
                     !seen.insert(keyOf(request.config)).second);
        } else {
            j = rng.index(traffic.workingSet.size());
            request.config = traffic.workingSet[j];
        }
        const Span op(log, "op", "score_config");
        const std::uint64_t t0 = nowNs();
        const Exchange ex = exchange(conn.value(), request, log);
        const double ms = static_cast<double>(nowNs() - t0) / 1e6;
        ++out.sent;
        if (!ex.ok) {
            out.tally.failure();
            continue;
        }
        ++out.okReplies;
        out.tally.success(ms);
        out.codecNs += ex.codecNs;
        ++out.codecCount;
        if (miss) {
            out.missMs.push_back(ms);
            out.fresh.emplace_back(request.config, ex.response);
        } else {
            out.hitMs.push_back(ms);
            if (!sameReply(traffic.expected[j], ex.response))
                ++out.mismatches;
        }
    }
}

/** Outcome of one closed-loop phase over every connection. */
struct Phase
{
    std::vector<ClientRun> runs;
    double wallSec = 0.0;

    OpTally
    tally() const
    {
        OpTally t;
        for (const ClientRun &r : runs)
            t.merge(r.tally);
        return t;
    }

    std::uint64_t
    sum(std::uint64_t ClientRun::*field) const
    {
        std::uint64_t s = 0;
        for (const ClientRun &r : runs)
            s += r.*field;
        return s;
    }

    std::vector<double>
    concat(std::vector<double> ClientRun::*field) const
    {
        std::vector<double> all;
        for (const ClientRun &r : runs)
            all.insert(all.end(), (r.*field).begin(), (r.*field).end());
        return all;
    }

    double
    opsPerSec() const
    {
        return static_cast<double>(sum(&ClientRun::okReplies)) /
               wallSec;
    }
};

/**
 * Closed-loop traffic: @p seconds x requestsPerSecond requests split
 * over the connections. With a @p daemonPid, each client thread and
 * the daemon's threads rotate across the CPUs: one CPU per client, the
 * rest shared by the daemon.
 */
Phase
runPhase(std::uint16_t port, const Traffic &traffic, std::uint64_t phase,
         double seconds, bool traced, int daemonPid)
{
    Phase p;
    p.runs = std::vector<ClientRun>(clients);
    std::array<std::atomic<int>, clients> tids{};
    const auto perClient = static_cast<std::uint64_t>(
        seconds * requestsPerSecond / static_cast<double>(clients));
    const double t0 = nowSec();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            tids[c] = callerTid();
            runClient(port, traffic, c, phase, perClient, traced,
                      p.runs[c]);
        });
    std::optional<CpuRotator> rotator;
    if (daemonPid > 0) {
        std::vector<CpuRotator::Group> groups;
        for (std::atomic<int> &tid : tids) {
            while (tid.load() == 0)
                std::this_thread::yield();
            groups.push_back({{tid.load()}, 1});
        }
        const std::size_t n = allowedCpus().size();
        groups.push_back(
            {threadIds(daemonPid), n > clients ? n - clients : 1});
        rotator.emplace(std::move(groups));
    }
    for (std::thread &t : threads)
        t.join();
    p.wallSec = nowSec() - t0;
    return p;
}

/** Score the working set once through the daemon (warms its cache). */
bool
warmWorkingSet(std::uint16_t port, const Traffic &traffic,
               std::uint64_t *sent, std::uint64_t *mismatches)
{
    Expected<serve::Socket> conn = serve::connectTcp(port);
    if (!conn)
        return false;
    for (std::size_t j = 0; j < traffic.workingSet.size(); ++j) {
        Request request;
        request.id = j + 1;
        request.type = MsgType::ScoreConfig;
        request.workload = workloadName;
        request.config = traffic.workingSet[j];
        const Exchange ex = exchange(conn.value(), request, nullptr);
        ++*sent;
        if (!ex.ok)
            return false;
        if (!sameReply(traffic.expected[j], ex.response))
            ++*mismatches;
    }
    return true;
}

/** Ping-only phase: the transport + dispatch floor. */
std::vector<double>
pingPhase(std::uint16_t port, std::uint64_t *sent, std::uint64_t *ok)
{
    std::vector<double> us;
    Expected<serve::Socket> conn = serve::connectTcp(port);
    if (!conn)
        return us;
    for (std::size_t i = 0; i < pingCount; ++i) {
        Request request;
        request.id = i + 1;
        request.type = MsgType::Ping;
        const std::uint64_t t0 = nowNs();
        const Exchange ex = exchange(conn.value(), request, nullptr);
        us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
        ++*sent;
        if (ex.ok)
            ++*ok;
    }
    return us;
}

struct RegistryDelta
{
    double requestCount = 0.0;
    double requestSumNs = 0.0;
    double busyNs = 0.0;
};

RegistryDelta
readRegistry()
{
    const metrics::Histogram &req = metrics::histogram("serve.request_ns");
    return {static_cast<double>(req.count()),
            static_cast<double>(req.sum()),
            static_cast<double>(metrics::counter("pool.busy_ns").value())};
}

/**
 * The daemon's own request time. The shipped binary never enables
 * timing, so its serve.request_ns histogram stays empty; this phase
 * runs the same Server class in-process with timing on, drives the
 * same traffic, and reads serve.request_ns and pool.busy_ns.
 */
struct InProcess
{
    bool ok = false;
    double daemonUs = 0.0;
    double rttUs = 0.0;
    double busyNs = 0.0;
    double capacityNs = 0.0;
};

InProcess
inProcessPhase(const DaemonShape &shape, const Traffic &traffic,
               double seconds)
{
    InProcess out;
    serve::ServeOptions options;
    options.tcpPort = 0;
    options.evalThreads = shape.evalThreads;
    options.serviceThreads = shape.serviceThreads;
    options.maxConnections = shape.maxConnections;
    metrics::setMetricsEnabled(true);
    serve::Server server(options);
    if (server.start())
        return out;
    std::thread loop([&server] { (void)server.serve(); });
    std::uint64_t sent = 0, mismatches = 0;
    const bool warm =
        warmWorkingSet(server.port(), traffic, &sent, &mismatches);
    const RegistryDelta before = readRegistry();
    const Phase p =
        warm ? runPhase(server.port(), traffic, 9, seconds, false, 0)
             : Phase{};
    const RegistryDelta after = readRegistry();
    server.requestShutdown();
    loop.join();
    metrics::setMetricsEnabled(false);
    const OpTally tally = p.tally();
    const std::vector<double> ms = tally.successMs();
    if (!warm || ms.empty() || tally.failed() != 0 || mismatches != 0)
        return out;
    double rttSum = 0.0;
    for (double v : ms)
        rttSum += v;
    const double requests = after.requestCount - before.requestCount;
    out.ok = requests > 0.0;
    out.daemonUs = out.ok ? (after.requestSumNs - before.requestSumNs) /
                                requests / 1e3
                          : 0.0;
    out.rttUs = rttSum / static_cast<double>(ms.size()) * 1e3;
    const double workers =
        static_cast<double>(shape.evalThreads + shape.serviceThreads);
    out.busyNs = after.busyNs - before.busyNs;
    out.capacityNs = p.wallSec * 1e9 * workers;
    return out;
}

/** Check fresh-config replies against in-process scalar scoring. */
std::uint64_t
checkFresh(const Phase &p, const std::vector<LayerShape> &layers)
{
    const Evaluator evaluator;
    std::uint64_t bad = 0;
    for (const ClientRun &r : p.runs)
        for (const auto &[config, response] : r.fresh)
            if (!sameReply(evaluator.evaluateWorkload(config, layers),
                           response))
                ++bad;
    return bad;
}

} // namespace

int
runServeScore(const Options &opts, Result &result)
{
    const DaemonShape shape = daemonShape();
    char threads[160];
    std::snprintf(threads, sizeof(threads),
                  "client connections %zu (closed loop), daemon "
                  "--eval-threads %zu --service-threads %zu "
                  "--max-connections %zu",
                  clients, shape.evalThreads, shape.serviceThreads,
                  shape.maxConnections);
    printIdentity(opts, threads);

    // Inputs from the seed: the working set and its in-process scores.
    Traffic traffic;
    traffic.seed = opts.seed;
    const std::vector<LayerShape> layers =
        workloadByName(workloadName).layers;
    {
        Rng rng(opts.seed);
        const Evaluator evaluator;
        while (traffic.workingSet.size() < workingSetSize) {
            const AcceleratorConfig c = designSpace().randomConfig(rng);
            if (!traffic.workingKeys.insert(keyOf(c)).second)
                continue;
            traffic.workingSet.push_back(c);
            traffic.expected.push_back(
                evaluator.evaluateWorkload(c, layers));
        }
    }

    // Set-up: daemon start + working-set warm-up, repeated; the last
    // daemon serves the measurement.
    std::vector<double> setups;
    std::uint64_t sent = 0, ok = 0, mismatches = 0;
    Daemon daemon;
    for (std::size_t r = 0; r < setupRepeats; ++r) {
        if (r > 0 && !daemon.stop(nullptr, nullptr)) {
            result.fail("daemon did not drain cleanly during set-up");
            return 1;
        }
        sent = 0;
        const double t0 = nowSec();
        if (!daemon.start(opts, shape) ||
            !warmWorkingSet(daemon.port(), traffic, &sent,
                            &mismatches)) {
            result.fail("daemon start or working-set warm-up failed");
            return 1;
        }
        setups.push_back(nowSec() - t0);
        ok = sent;
    }

    // An untimed warm phase first: the same traffic, so the cache,
    // the connections and the CPUs are in their steady state before
    // the timed phase starts.
    const Phase warm = runPhase(daemon.port(), traffic, 0, warmSeconds,
                                false, daemon.pid());
    // The timed trials, back to back on the same daemon.
    const double untracedSec = opts.trace ? opts.seconds / 2 : opts.seconds;
    std::vector<Phase> trials;
    for (std::size_t t = 0; t < trialsPerRun; ++t)
        trials.push_back(runPhase(daemon.port(), traffic, 1 + t,
                                  untracedSec / trialsPerRun, false,
                                  daemon.pid()));
    Phase traced;
    std::vector<double> pingUs;
    if (opts.trace) {
        traced = runPhase(daemon.port(), traffic, 1 + trialsPerRun,
                          opts.seconds / 2, true, daemon.pid());
        pingUs = pingPhase(daemon.port(), &sent, &ok);
    }
    std::vector<const Phase *> phases = {&warm, &traced};
    for (const Phase &p : trials)
        phases.push_back(&p);
    std::uint64_t badFresh = 0;
    for (const Phase *p : phases) {
        sent += p->sum(&ClientRun::sent);
        ok += p->sum(&ClientRun::okReplies);
        mismatches += p->sum(&ClientRun::mismatches);
        badFresh += checkFresh(*p, layers);
    }

    double daemonRss = 0.0;
    std::string manifest;
    if (!daemon.stop(&daemonRss, &manifest)) {
        result.fail("daemon did not drain cleanly");
        return 1;
    }

    // Output checks: every reply bit-identical to in-process scalar
    // scoring, and the daemon's counters conserve.
    if (mismatches != 0)
        result.fail(std::to_string(mismatches) +
                    " replies differ from in-process scoring");
    if (badFresh != 0)
        result.fail(std::to_string(badFresh) +
                    " fresh-config replies differ from in-process "
                    "scoring");
    const double requests = manifestValue(manifest, "serve.requests").value;
    const double rejected =
        manifestValue(manifest, "serve.rejected_overload").value;
    const double expired =
        manifestValue(manifest, "serve.deadline_exceeded").value;
    const double invalid =
        manifestValue(manifest, "serve.invalid_requests").value;
    if (requests != static_cast<double>(sent) ||
        requests != static_cast<double>(ok) + rejected + expired + invalid)
        result.fail("daemon counters do not conserve: requests " +
                    std::to_string(requests) + ", sent " +
                    std::to_string(sent) + ", ok " + std::to_string(ok));

    std::vector<Trial> timed;
    for (const Phase &p : trials)
        timed.push_back(
            {p.tally(), p.sum(&ClientRun::okReplies), p.wallSec});
    std::printf("serve_score: daemon peak RSS %.1f MiB\n", daemonRss);
    if (!opts.trace) {
        addEndToEnd(result, timed, setups, daemonRss);
        return result.correct() ? 0 : 1;
    }
    printTrials(timed);
    const double untracedOps = overallOpsPerSec(timed);
    result.attempted = traced.tally().attempted();
    result.failed = traced.tally().failed();

    // Per-layer metrics from the traced half and the daemon manifest.
    const InProcess inproc = inProcessPhase(shape, traffic, 2.0);
    if (!inproc.ok)
        result.fail("in-process daemon phase failed");
    std::vector<const SpanLog *> logs;
    for (const ClientRun &r : traced.runs)
        logs.push_back(&r.log);
    double opMs = 0.0;
    const std::vector<LayerRow> rows = layerBreakdown(logs, &opMs);
    printBreakdown(rows, opMs);
    writeSpans(opts.outDir + "/serve_score_spans.csv", logs);
    double uncoveredMs = 0.0;
    for (const LayerRow &row : rows)
        if (row.layer == "uncovered")
            uncoveredMs = row.selfMs;

    const auto p50 = [](std::vector<double> v) {
        return percentile(std::move(v), 0.5).value_or(0.0);
    };
    const ManifestValue batch = manifestValue(manifest, "serve.batch_size");
    const ManifestValue wait =
        manifestValue(manifest, "serve.batch_wait_ns");
    const double hits = manifestValue(manifest, "cache.hit").value;
    const double misses = manifestValue(manifest, "cache.miss").value;
    const double codecCount =
        static_cast<double>(traced.sum(&ClientRun::codecCount));
    result.add("serve.ping_rtt_us", p50(pingUs), "us");
    result.add("serve.codec_ns",
               codecCount > 0
                   ? static_cast<double>(traced.sum(&ClientRun::codecNs)) /
                         codecCount
                   : 0.0,
               "ns");
    result.add("serve.daemon_us", inproc.daemonUs, "us");
    result.add("serve.outside_daemon_us", inproc.rttUs - inproc.daemonUs,
               "us");
    result.add("serve.batch_size_mean",
               batch.count > 0 ? batch.sum / batch.count : 0.0, "count");
    result.add("serve.batch_wait_us",
               wait.count > 0 ? wait.sum / wait.count / 1e3 : 0.0, "us");
    result.add("serve.hit_rtt_us",
               p50(traced.concat(&ClientRun::hitMs)) * 1e3, "us");
    result.add("serve.miss_rtt_us",
               p50(traced.concat(&ClientRun::missMs)) * 1e3, "us");
    result.add("serve.requests", requests, "count");
    result.add("serve.rejected_overload", rejected, "count");
    result.add("serve.deadline_exceeded", expired, "count");
    result.add("serve.invalid_requests", invalid, "count");
    addRatio(result, "cache.hit_ratio", hits, hits + misses,
             "daemon cache hits / (hits + misses)");
    result.add("cache.shard_contention",
               manifestValue(manifest, "cache.shard_contention").value,
               "count");
    addRatio(result, "pool.busy_share", inproc.busyNs, inproc.capacityNs,
             "in-process pool busy ns / (wall ns x workers)");
    result.add("pool.tasks", manifestValue(manifest, "pool.tasks").value,
               "count");
    addRatio(result, "trace.uncovered_share", uncoveredMs, opMs,
             "op ms no span covers / op ms");
    addRatio(result, "trace.ops_ratio", traced.opsPerSec(), untracedOps,
             "tracing overhead: traced ops/s / untraced ops/s");
    // The working set and the fresh configs through the mapper and
    // the batch cost model: the work behind the miss path.
    std::vector<AcceleratorConfig> replayed(
        traffic.workingSet.begin(), traffic.workingSet.begin() + 128);
    for (const ClientRun &r : traced.runs)
        for (std::size_t i = 0; i < r.fresh.size() && i < 64; ++i)
            replayed.push_back(r.fresh[i].first);
    const ReplayCost replay = replayMapper(replayed, layers, nullptr);
    result.add("sched.mapper_ns", replay.mapperNs, "ns");
    result.add("costmodel.ns_per_item", replay.costNsPerItem, "ns");

    std::printf("serve_score: in-process daemon phase: request %.2f us "
                "inside the daemon of %.2f us round trip\n",
                inproc.daemonUs, inproc.rttUs);
    return result.correct() ? 0 : 1;
}

} // namespace perfbench
