#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>

#include "dse/bo.hh"
#include "dse/objective.hh"
#include "dse/random_search.hh"
#include "sched/parallel_evaluator.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/metrics.hh"
#include "workload/zoo.hh"

namespace vaesa {
namespace serve {

namespace {

/** Serving instruments, resolved once. */
struct ServeMetrics
{
    metrics::Counter &connections =
        metrics::counter("serve.connections");
    metrics::Counter &requests = metrics::counter("serve.requests");
    metrics::Counter &rejectedOverload =
        metrics::counter("serve.rejected_overload");
    metrics::Counter &deadlineExceeded =
        metrics::counter("serve.deadline_exceeded");
    metrics::Counter &invalidRequests =
        metrics::counter("serve.invalid_requests");
    metrics::Counter &killedConnections =
        metrics::counter("serve.killed_connections");
    metrics::Counter &acceptFailures =
        metrics::counter("serve.accept_failures");
    metrics::Histogram &requestNs =
        metrics::histogram("serve.request_ns");
    /** Time spent answering connections the accept loop turned away
     *  — the one reply path outside handleConnection's request
     *  timer, so overload rejections stay latency-observable too. */
    metrics::Histogram &rejectNs =
        metrics::histogram("serve.reject_ns");
};

ServeMetrics &
serveMetrics()
{
    static ServeMetrics m;
    return m;
}

/**
 * Input-space objective of one serve request: decodes [0,1]^6 box
 * points exactly like the paper's `random`/`bo` baselines but scores
 * through the SHARED memo cache with evaluateCachedBatch, so every
 * request warms the cache for the next one and a deadline firing
 * mid-batch takes the batch engine's all-or-nothing exit
 * (no partial merge, no counter drift). A batch killed by its
 * deadline scores invalidScore so the driver reaches its own
 * boundary check and returns the partial best-so-far trace instead
 * of unwinding past it.
 */
class ServeObjective : public Objective
{
  public:
    ServeObjective(const CachingEvaluator &cache, ThreadPool &pool,
                   const Workload &workload, const CancelToken *cancel)
        : cache_(cache), pool_(pool), workload_(workload),
          cancel_(cancel)
    {
    }

    std::size_t dim() const override { return numHwParams; }

    std::vector<double>
    lowerBounds() const override
    {
        return std::vector<double>(numHwParams, 0.0);
    }

    std::vector<double>
    upperBounds() const override
    {
        return std::vector<double>(numHwParams, 1.0);
    }

    double
    evaluate(const std::vector<double> &x) override
    {
        return metricValue(
            cache_.evaluateWorkload(decodeBoxPoint(x), workload_),
            Metric::Edp);
    }

    bool threadSafeEvaluate() const override { return true; }

    std::vector<double>
    evaluateBatch(const std::vector<std::vector<double>> &xs,
                  ThreadPool *) override
    {
        std::vector<AcceleratorConfig> configs;
        configs.reserve(xs.size());
        for (const std::vector<double> &x : xs)
            configs.push_back(decodeBoxPoint(x));
        std::vector<double> out(xs.size(), invalidScore);
        try {
            const std::vector<EvalResult> results =
                evaluateCachedBatch(cache_, configs, workload_, pool_,
                                    cancel_);
            for (std::size_t i = 0; i < xs.size(); ++i)
                out[i] = metricValue(results[i], Metric::Edp);
        } catch (const DeadlineExceeded &) {
            // The batch died at the deadline AFTER the all-or-nothing
            // exit left the cache untouched; the invalid scores are a
            // placeholder tail the driver's boundary check cuts off.
        }
        return out;
    }

  private:
    const CachingEvaluator &cache_;
    ThreadPool &pool_;
    const Workload &workload_;
    const CancelToken *cancel_;
};

/**
 * Latent-space objective of one serve request: decode through the
 * pinned model bundle (scratch buffers serialized by modelMutex,
 * released before any cache lock per the lock-order table), score
 * through the shared cache. Not thread-safe by declaration, so
 * drivers keep it on the calling thread.
 */
class LatentServeObjective : public Objective
{
  public:
    LatentServeObjective(std::shared_ptr<ModelBundle> bundle,
                         const CachingEvaluator &cache,
                         const Workload &workload, double radius)
        : bundle_(std::move(bundle)), cache_(cache), workload_(workload),
          dim_(bundle_->framework->latentDim()), radius_(radius)
    {
    }

    std::size_t dim() const override { return dim_; }

    std::vector<double>
    lowerBounds() const override
    {
        return std::vector<double>(dim_, -radius_);
    }

    std::vector<double>
    upperBounds() const override
    {
        return std::vector<double>(dim_, radius_);
    }

    double
    evaluate(const std::vector<double> &z) override
    {
        AcceleratorConfig config;
        {
            const MutexLock lock(bundle_->modelMutex);
            config = bundle_->framework->decodeLatent(z);
        }
        return metricValue(cache_.evaluateWorkload(config, workload_),
                           Metric::Edp);
    }

    /** Decode one latent point (for reporting the best config). */
    AcceleratorConfig
    decode(const std::vector<double> &z) const
    {
        const MutexLock lock(bundle_->modelMutex);
        return bundle_->framework->decodeLatent(z);
    }

  private:
    std::shared_ptr<ModelBundle> bundle_;
    const CachingEvaluator &cache_;
    const Workload &workload_;
    std::size_t dim_;
    double radius_;
};

/** Decrements a counter on scope exit (connection/search slots). */
class SlotGuard
{
  public:
    explicit SlotGuard(std::atomic<std::size_t> &count)
        : count_(count)
    {
    }

    ~SlotGuard() { count_.fetch_sub(1); }

    SlotGuard(const SlotGuard &) = delete;
    SlotGuard &operator=(const SlotGuard &) = delete;

  private:
    std::atomic<std::size_t> &count_;
};

} // namespace

Server::Server(const ServeOptions &options)
    : options_(options), evalPool_(options.evalThreads),
      servicePool_(std::max<std::size_t>(1, options.serviceThreads))
{
    for (Workload &w : trainingWorkloads())
        workloads_[w.name] = std::move(w);
    for (Workload &w : zooWorkloads())
        workloads_[w.name] = std::move(w);
}

Server::~Server()
{
    // Pools join in member destruction order (service first, so no
    // handler can touch the eval pool after it drains).
    servicePool_.shutdown();
    evalPool_.shutdown();
}

std::optional<LoadError>
Server::start()
{
    if (!options_.modelPath.empty()) {
        if (auto err = models_.reload(options_.modelPath))
            return err;
    }
    Expected<Socket> listener =
        options_.unixPath.empty() ? listenTcp(options_.tcpPort)
                                  : listenUnix(options_.unixPath);
    if (!listener)
        return listener.error();
    listener_ = std::move(listener.value());
    if (options_.unixPath.empty()) {
        Expected<std::uint16_t> port = boundPort(listener_);
        if (!port)
            return port.error();
        port_ = port.value();
    }
    inform("vaesa_serve listening on ",
           options_.unixPath.empty()
               ? "tcp port " + std::to_string(port_)
               : "unix socket " + options_.unixPath);
    return std::nullopt;
}

int
Server::serve()
{
    ServeMetrics &sm = serveMetrics();
    std::vector<std::future<void>> handlers;
    auto reapFinished = [&handlers]() {
        handlers.erase(
            std::remove_if(
                handlers.begin(), handlers.end(),
                [](std::future<void> &f) {
                    return f.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready;
                }),
            handlers.end());
    };

    while (!shutdownRequested_.load(std::memory_order_relaxed)) {
        if (reloadRequested_.exchange(false)) {
            if (options_.modelPath.empty())
                warn("reload requested but no model path "
                     "configured; ignoring");
            else if (auto err = models_.reload(options_.modelPath))
                warn("hot reload failed, keeping generation ",
                     models_.generation(), ": ", err->describe());
        }

        const int ready = waitReadable(listener_, 100);
        if (ready < 0) {
            warn("listener poll failed; draining");
            requestShutdown();
            break;
        }
        if (ready == 0) {
            reapFinished();
            continue;
        }

        try {
            Expected<Socket> conn = acceptConnection(listener_);
            if (!conn) {
                sm.acceptFailures.inc();
                continue;
            }
            if (activeConns_.load() >= options_.maxConnections) {
                // Admission control: a structured rejection, never a
                // silent drop and never unbounded queueing.
                Response rejection;
                rejection.status = Status::RejectedOverload;
                rejection.message =
                    "server at connection capacity; retry later";
                sm.rejectedOverload.inc();
                const metrics::ScopedTimer timer(sm.rejectNs);
                (void)sendFrame(conn.value(),
                                frameMessage(
                                    serializeResponse(rejection)));
                continue;
            }
            activeConns_.fetch_add(1);
            auto sock =
                std::make_shared<Socket>(std::move(conn.value()));
            try {
                handlers.push_back(servicePool_.submit(
                    [this, sock]() {
                        handleConnection(std::move(*sock));
                    }));
            } catch (const std::runtime_error &) {
                // Lost the race against our own drain; undo.
                activeConns_.fetch_sub(1);
            }
        } catch (const InjectedFault &) {
            // A failed accept (or a rejection response dying on the
            // wire) costs one connection, never the daemon.
            sm.acceptFailures.inc();
        }
        reapFinished();
    }

    // Drain: stop admitting (the loop above has exited), cancel
    // in-flight work, and wait for every handler to notice. Handlers
    // observe the token between recv slices and at batch/iteration
    // boundaries, so this converges within one slice plus one chunk.
    drainToken_.cancel();
    for (std::future<void> &f : handlers)
        f.wait();
    servicePool_.shutdown();
    evalPool_.shutdown();
    listener_.close();

    if (!options_.manifestPath.empty()) {
        metrics::ManifestInfo info;
        info.tool = "vaesa_serve";
        info.command = "serve";
        info.commandLine = options_.unixPath.empty()
                               ? "tcp:" + std::to_string(port_)
                               : "unix:" + options_.unixPath;
        metrics::writeManifest(options_.manifestPath, info);
    }
    inform("vaesa_serve drained cleanly");
    return 0;
}

void
Server::requestShutdown()
{
    shutdownRequested_.store(true, std::memory_order_relaxed);
}

void
Server::requestReload()
{
    reloadRequested_.store(true, std::memory_order_relaxed);
}

void
Server::handleConnection(Socket sock)
{
    ServeMetrics &sm = serveMetrics();
    const SlotGuard slot(activeConns_);
    sm.connections.inc();
    try {
        while (!drainToken_.expired()) {
            Expected<std::string> frame =
                recvFrame(sock, static_cast<int>(
                                    options_.idleTimeoutMs),
                          &drainToken_);
            if (!frame)
                break; // closed / idle timeout / drain

            Expected<std::string> payload =
                unwrapFrame(frame.value());
            if (!payload) {
                // CRC or framing damage: the stream can no longer
                // be trusted to be record-aligned, so answer once
                // and hang up.
                sm.invalidRequests.inc();
                Response err;
                err.status = Status::InvalidRequest;
                err.message = payload.error().describe();
                (void)sendFrame(
                    sock, frameMessage(serializeResponse(err)));
                break;
            }

            Expected<Request> parsed = parseRequest(payload.value());
            if (!parsed) {
                // The frame was intact, so the stream stays aligned;
                // reject this request and keep the connection.
                sm.invalidRequests.inc();
                Response err;
                err.status = Status::InvalidRequest;
                err.message = parsed.error().describe();
                if (sendFrame(sock,
                              frameMessage(serializeResponse(err))))
                    break;
                continue;
            }

            bool closeAfter = false;
            const metrics::ScopedTimer timer(sm.requestNs);
            Response resp = dispatch(parsed.value(), &closeAfter);
            if (sendFrame(sock,
                          frameMessage(serializeResponse(resp))) ||
                closeAfter)
                break;
        }
    } catch (const InjectedFault &) {
        // Kill-mid-request: the connection dies where the fault
        // fired; the shared cache only ever holds complete,
        // deterministic per-layer entries, so it stays bit-identical.
        sm.killedConnections.inc();
    } catch (const std::exception &e) {
        warn("connection handler died: ", e.what());
        sm.killedConnections.inc();
    }
}

Response
Server::dispatch(const Request &request, bool *closeAfter)
{
    ServeMetrics &sm = serveMetrics();
    sm.requests.inc();
    Response resp;
    resp.id = request.id;
    resp.type = request.type;

    CancelToken token;
    token.chainTo(&drainToken_);
    if (request.deadlineMs != 0)
        token.setDeadlineAfterMs(
            std::min(request.deadlineMs, options_.maxDeadlineMs));

    try {
        switch (request.type) {
        case MsgType::Ping:
            resp.status = Status::Ok;
            break;
        case MsgType::ScoreConfig:
            handleScore(request, token, &resp);
            break;
        case MsgType::DecodeLatent:
            handleDecode(request, token, &resp);
            break;
        case MsgType::SearchK:
            handleSearch(request, token, &resp);
            break;
        case MsgType::Reload:
            handleReload(request, &resp);
            break;
        case MsgType::Stats:
            handleStats(&resp);
            break;
        case MsgType::Shutdown:
            resp.status = Status::Ok;
            resp.message = "draining";
            requestShutdown();
            *closeAfter = true;
            break;
        }
    } catch (const DeadlineExceeded &) {
        resp.status = Status::DeadlineExceeded;
        resp.message = "deadline expired";
    } catch (const InjectedFault &) {
        throw; // kill-mid-request propagates to the connection level
    } catch (const std::exception &e) {
        resp.status = Status::InternalError;
        resp.message = e.what();
    }

    if (resp.status == Status::DeadlineExceeded)
        sm.deadlineExceeded.inc();
    else if (resp.status == Status::InvalidRequest)
        sm.invalidRequests.inc();
    else if (resp.status == Status::RejectedOverload)
        sm.rejectedOverload.inc();
    return resp;
}

const Workload *
Server::findWorkload(const std::string &name, Response *resp)
{
    const auto it = workloads_.find(name);
    if (it == workloads_.end()) {
        resp->status = Status::InvalidRequest;
        resp->message = "unknown workload '" + name + "'";
        return nullptr;
    }
    return &it->second;
}

void
Server::handleScore(const Request &request, CancelToken &token,
                    Response *resp)
{
    const Workload *workload = findWorkload(request.workload, resp);
    if (!workload)
        return;
    token.check("score_admit");
    // Scored on this service thread with one cache probe; only the
    // layers the probe misses are computed (lint-enforced: no serve
    // file calls the uncached batch entry point).
    const EvalResult result =
        cache_.evaluateWorkload(request.config, *workload, &token);
    resp->valid = result.valid;
    resp->latencyCycles = result.latencyCycles;
    resp->energyPj = result.energyPj;
    resp->edp = result.edp;
    resp->config = cache_.snapConfig(request.config);
    resp->status = Status::Ok;
}

void
Server::handleDecode(const Request &request, CancelToken &token,
                     Response *resp)
{
    const std::shared_ptr<ModelBundle> bundle = models_.current();
    resp->generation = bundle->generation;
    if (!bundle->hasModel()) {
        resp->status = Status::InvalidRequest;
        resp->message = "no model loaded";
        return;
    }
    if (request.latent.size() != bundle->framework->latentDim()) {
        resp->status = Status::InvalidRequest;
        resp->message =
            "latent dimension mismatch: got " +
            std::to_string(request.latent.size()) + ", model has " +
            std::to_string(bundle->framework->latentDim());
        return;
    }
    token.check("decode_admit");
    {
        const MutexLock lock(bundle->modelMutex);
        resp->config = bundle->framework->decodeLatent(request.latent);
    }
    if (!request.workload.empty()) {
        const Workload *workload = findWorkload(request.workload, resp);
        if (!workload)
            return;
        const EvalResult result =
            cache_.evaluateWorkload(resp->config, *workload, &token);
        resp->valid = result.valid;
        resp->latencyCycles = result.latencyCycles;
        resp->energyPj = result.energyPj;
        resp->edp = result.edp;
    }
    resp->status = Status::Ok;
}

void
Server::handleSearch(const Request &request, CancelToken &token,
                     Response *resp)
{
    const Workload *workload = findWorkload(request.workload, resp);
    if (!workload)
        return;

    // Max-in-flight semaphore: long searches are the requests that
    // can wedge the eval pool, so they get their own bound below the
    // connection-level one.
    std::size_t inflight = searchInflight_.load();
    do {
        if (inflight >= options_.maxInflightSearch) {
            resp->status = Status::RejectedOverload;
            resp->message = "search slots exhausted; retry later";
            return;
        }
    } while (!searchInflight_.compare_exchange_weak(inflight,
                                                    inflight + 1));
    const SlotGuard slot(searchInflight_);

    const std::size_t samples =
        std::min<std::size_t>(request.samples,
                              options_.maxSearchSamples);
    Rng rng(request.seed);
    SearchTrace trace;

    switch (request.method) {
    case SearchMethod::Random: {
        ServeObjective objective(cache_, evalPool_, *workload, &token);
        trace = RandomSearch().run(objective, samples, rng,
                                   &evalPool_, nullptr, &token);
        if (!trace.bestPoint().empty())
            resp->config = decodeBoxPoint(trace.bestPoint());
        break;
    }
    case SearchMethod::Bo: {
        ServeObjective objective(cache_, evalPool_, *workload, &token);
        trace = BayesOpt().run(objective, samples, rng, &evalPool_,
                               nullptr, &token);
        if (!trace.bestPoint().empty())
            resp->config = decodeBoxPoint(trace.bestPoint());
        break;
    }
    case SearchMethod::LatentRandom: {
        const std::shared_ptr<ModelBundle> bundle =
            models_.current();
        resp->generation = bundle->generation;
        if (!bundle->hasModel()) {
            resp->status = Status::InvalidRequest;
            resp->message = "no model loaded for latent search";
            return;
        }
        LatentServeObjective objective(bundle, cache_, *workload,
                                       options_.latentRadius);
        trace = RandomSearch().run(objective, samples, rng, nullptr,
                                   nullptr, &token);
        if (!trace.bestPoint().empty())
            resp->config = objective.decode(trace.bestPoint());
        break;
    }
    }

    resp->evals = trace.points.size();
    resp->bestValue = trace.best();
    resp->bestPoint = trace.bestPoint();
    resp->valid = std::isfinite(resp->bestValue);
    resp->status = (token.expired() && trace.points.size() < samples)
                       ? Status::DeadlineExceeded
                       : Status::Ok;
    if (resp->status == Status::DeadlineExceeded)
        resp->message = "partial best-so-far after " +
                        std::to_string(trace.points.size()) + "/" +
                        std::to_string(samples) + " samples";
}

void
Server::handleReload(const Request &request, Response *resp)
{
    const std::string path = request.reloadPath.empty()
                                 ? options_.modelPath
                                 : request.reloadPath;
    if (path.empty()) {
        resp->status = Status::InvalidRequest;
        resp->message = "no checkpoint path configured or given";
        return;
    }
    if (auto err = models_.reload(path)) {
        resp->status = Status::ReloadFailed;
        resp->message = err->describe();
    } else {
        resp->status = Status::Ok;
    }
    resp->generation = models_.generation();
}

void
Server::handleStats(Response *resp)
{
    resp->cacheHits = cache_.hits();
    resp->cacheMisses = cache_.misses();
    resp->generation = models_.generation();
    resp->evals = cache_.inner().evaluationCount();
    resp->message =
        "hits=" + std::to_string(resp->cacheHits) +
        " misses=" + std::to_string(resp->cacheMisses) +
        " evals=" + std::to_string(resp->evals) +
        " generation=" + std::to_string(resp->generation) +
        " connections=" + std::to_string(activeConns_.load());
    resp->status = Status::Ok;
}

} // namespace serve
} // namespace vaesa
