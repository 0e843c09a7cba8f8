/**
 * @file
 * The vaesa_serve daemon core: a deadline-aware, overload-safe
 * DSE-as-a-service front end over the cost-model + search stack.
 *
 * ARCHITECTURE. One accept loop (the thread calling serve()) admits
 * connections and hands each to a handler task on the SERVICE pool;
 * handlers parse framed requests and run them against the shared
 * sharded CachingEvaluator. ScoreConfig and DecodeLatent scoring run
 * on the handler's own thread with one cache probe per request
 * (CachingEvaluator::evaluateWorkload); SearchK fans its bulk
 * cost-model work onto a separate EVAL pool through
 * evaluateCachedBatch, and its service thread scores chunks of its
 * own batch beside the eval workers before it joins them. Two pools
 * because a batch must not run inside its own pool's tasks (its
 * caller waits on tasks queued behind it): service workers join
 * eval-pool tasks, never ones on their own queue.
 *
 * ADMISSION CONTROL. Connections beyond maxConnections receive an
 * unsolicited REJECTED_OVERLOAD response and are closed before any
 * work is queued (the service pool's queue stays bounded by
 * construction); SearchK requests additionally take a slot from a
 * max-in-flight counting semaphore sized off the eval pool, so one
 * client cannot wedge every worker behind long searches.
 *
 * DEADLINES + DRAIN. Every request gets a CancelToken chained to the
 * server's drain token; expiry is observed before each missed layer
 * of a scored config (layers already computed stay cached), at batch
 * chunk claims, and at search iteration boundaries, producing
 * DEADLINE_EXCEEDED (with the partial best-so-far for searches; a
 * search batch takes the pipeline's all-or-nothing exit and leaves
 * the cache exactly as a never-started request).
 * requestShutdown() (SIGTERM/SIGINT) stops admission, cancels
 * in-flight work through the same token, drains both pools, flushes
 * the metrics manifest, and serve() returns 0.
 *
 * HOT RELOAD. The serving model lives in an RCU ModelRegistry:
 * requestReload() (SIGHUP) or a Reload request validates the new
 * checkpoint completely before an atomic pointer swap; in-flight
 * requests finish on the generation they started with and a failed
 * reload (including the `serve_reload` fault) changes nothing.
 */

#ifndef VAESA_SERVE_SERVER_HH
#define VAESA_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sched/caching_evaluator.hh"
#include "serve/model_bundle.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "util/deadline.hh"
#include "util/thread_pool.hh"
#include "workload/networks.hh"

namespace vaesa {
namespace serve {

/** Daemon configuration. */
struct ServeOptions
{
    /** Serve on this Unix socket path when non-empty... */
    std::string unixPath;

    /** ...otherwise on loopback TCP (0 picks an ephemeral port,
     *  read back with Server::port()). */
    std::uint16_t tcpPort = 0;

    /** Eval-pool workers (0 = ThreadPool::defaultThreadCount()). */
    std::size_t evalThreads = 0;

    /** Service-pool workers = concurrently served connections. */
    std::size_t serviceThreads = 4;

    /** Admission bound on accepted-and-unfinished connections;
     *  beyond it new connections get REJECTED_OVERLOAD. */
    std::size_t maxConnections = 8;

    /** Max concurrently running SearchK requests. */
    std::size_t maxInflightSearch = 2;

    /** Hard cap applied to per-request deadlines. */
    std::uint32_t maxDeadlineMs = 300000;

    /** Per-connection idle timeout before the server hangs up. */
    std::uint32_t idleTimeoutMs = 10000;

    /** Server-side clamp on one SearchK sample budget. */
    std::uint32_t maxSearchSamples = 4096;

    /** Optional model checkpoint served at boot and on SIGHUP. */
    std::string modelPath;

    /** When non-empty, the metrics manifest is flushed here during
     *  drain. */
    std::string manifestPath;

    /** Half-width of the latent search box for LatentRandom. */
    double latentRadius = 2.5;
};

/** The daemon. Construct, start(), then serve() on some thread. */
class Server
{
  public:
    explicit Server(const ServeOptions &options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Load the boot model (when configured) and bind the listener.
     *  @return nullopt on success; the daemon must not serve
     *  otherwise. */
    std::optional<LoadError> start();

    /**
     * Run the accept loop until requestShutdown(), then drain:
     * cancel in-flight work, join both pools, flush the manifest.
     * @return process exit code (0 on a clean drain).
     */
    int serve();

    /** Begin a graceful drain (async-signal-safe: one atomic). */
    void requestShutdown();

    /** Ask the accept loop to hot-reload options().modelPath
     *  (async-signal-safe: one atomic). */
    void requestReload();

    /** Bound TCP port after start() (0 in Unix-socket mode). */
    std::uint16_t port() const { return port_; }

    /** The options in use. */
    const ServeOptions &options() const { return options_; }

    /** The shared memo cache (test/bench introspection). */
    const CachingEvaluator &cache() const { return cache_; }

    /** The model registry (test introspection). */
    ModelRegistry &models() { return models_; }

  private:
    void handleConnection(Socket sock);

    /** Run one parsed request; never throws except InjectedFault
     *  (which kills the connection, not the server). */
    Response dispatch(const Request &request, bool *closeAfter);

    void handleScore(const Request &request, CancelToken &token,
                     Response *resp);
    void handleDecode(const Request &request, CancelToken &token,
                      Response *resp);
    void handleSearch(const Request &request, CancelToken &token,
                      Response *resp);
    void handleReload(const Request &request, Response *resp);
    void handleStats(Response *resp);

    const Workload *findWorkload(const std::string &name,
                                 Response *resp);

    ServeOptions options_;
    CachingEvaluator cache_;
    ThreadPool evalPool_;
    ThreadPool servicePool_;
    ModelRegistry models_;
    std::map<std::string, Workload> workloads_;
    Socket listener_;
    std::uint16_t port_ = 0;
    CancelToken drainToken_;
    std::atomic<bool> shutdownRequested_{false};
    std::atomic<bool> reloadRequested_{false};
    std::atomic<std::size_t> activeConns_{0};
    std::atomic<std::size_t> searchInflight_{0};
};

} // namespace serve
} // namespace vaesa

#endif // VAESA_SERVE_SERVER_HH
