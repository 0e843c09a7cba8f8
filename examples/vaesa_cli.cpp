/**
 * @file
 * Command-line driver for the whole framework -- the tool a user
 * would script against. Subcommands:
 *
 *   vaesa_cli space
 *       Print the design space (Table II) and its size.
 *   vaesa_cli eval PES MACS ACCUM_KB WEIGHT_KB INPUT_KB GLOBAL_KB
 *             [--workload NAME]
 *       Map + score one configuration (default workload resnet50).
 *   vaesa_cli train MODEL.BIN [--latent N] [--epochs N]
 *             [--dataset N] [--alpha X] [--seed N]
 *             [--checkpoint CKPT] [--checkpoint-every N]
 *       Build a dataset, train end-to-end, save a snapshot. With
 *       --checkpoint, training saves a resumable checkpoint every N
 *       epochs and picks it up on restart.
 *   vaesa_cli search MODEL.BIN [--workload NAME] [--samples N]
 *             [--method vae_bo|bo|random] [--seed N]
 *             [--checkpoint SNAP] [--checkpoint-every N]
 *       Search with a saved model (vae_bo) or directly in the input
 *       space (bo/random, model still provides the box). With
 *       --checkpoint, the search snapshots its state and resumes an
 *       interrupted run.
 *   vaesa_cli decode MODEL.BIN Z1 Z2 [...]
 *       Decode a latent point to a configuration and score it.
 *
 * train and search additionally take --metrics-out FILE and
 * --trace-out FILE, which arm the util/metrics registry and the
 * util/trace span buffer and, on exit, write a versioned JSON run
 * manifest and a Chrome trace (docs/OBSERVABILITY.md).
 *
 * Argument parsing is strict: an unknown or value-less --flag, an
 * integer flag or eval positional that is not a whole number in
 * range, or a real flag or decode coordinate that is not a finite
 * number, aborts with the usage text and a nonzero exit instead of
 * being silently ignored or read as a prefix.
 */

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "arch/area_model.hh"
#include "dse/bo.hh"
#include "dse/multi_workload.hh"
#include "dse/random_search.hh"
#include "dse/search_state.hh"
#include "sched/evaluator.hh"
#include "util/metrics.hh"
#include "util/trace.hh"
#include "vaesa/latent_dse.hh"
#include "vaesa/serialize.hh"
#include "workload/networks.hh"
#include "workload/parse.hh"

namespace {

using namespace vaesa;

/**
 * SIGTERM/SIGINT during `train` request a cooperative stop: the
 * trainer checks this flag at epoch boundaries, writes a final
 * resumable checkpoint, and returns cleanly (no torn optimizer
 * state). A second signal falls back to the default disposition.
 */
std::atomic<bool> gTrainStop{false};

void
handleTrainStop(int sig)
{
    gTrainStop.store(true, std::memory_order_relaxed);
    std::signal(sig, SIG_DFL);
}

/** Usage summary printed on any command-line error. */
void
printUsage(std::FILE *out, const char *prog)
{
    std::fprintf(
        out,
        "usage: %s COMMAND [args...]\n"
        "\n"
        "commands:\n"
        "  space\n"
        "  eval PES MACS ACCUM_KB WEIGHT_KB INPUT_KB GLOBAL_KB\n"
        "       [--workload NAME | --layers FILE]\n"
        "  train MODEL.BIN [--latent N] [--epochs N] [--dataset N]\n"
        "       [--alpha X] [--seed N] [--mix FILE]\n"
        "       [--checkpoint CKPT] [--checkpoint-every N]\n"
        "       [--metrics-out FILE] [--trace-out FILE]\n"
        "  search MODEL.BIN [--workload NAME | --layers FILE]\n"
        "       [--metric edp|latency|energy] [--samples N]\n"
        "       [--method vae_bo|bo|random] [--seed N]\n"
        "       [--radius X] [--checkpoint SNAP]\n"
        "       [--checkpoint-every N] [--metrics-out FILE]\n"
        "       [--trace-out FILE]\n"
        "  decode MODEL.BIN Z1 [Z2 ...]\n"
        "       [--workload NAME | --layers FILE]\n"
        "\n"
        "--mix trains on a traffic-mix file (one '<workload>\n"
        "<weight>' per line over built-in/zoo workload names) with\n"
        "layer draws weighted by traffic-weighted occurrence; see\n"
        "docs/WORKLOADS.md.\n"
        "--metrics-out writes a JSON run manifest (metrics + run\n"
        "identity); --trace-out writes a Chrome trace of the run\n"
        "(load in chrome://tracing or Perfetto). See\n"
        "docs/OBSERVABILITY.md.\n",
        prog);
}

/**
 * Tiny flag parser: --name value pairs after the positionals.
 * Every token starting with "--" must be in the command's allowed
 * set and must be followed by a value; anything else is a parse
 * error (reported via error()), never a silently-dropped flag --
 * a typo like --epocks must fail loudly, not train with defaults.
 */
class Args
{
  public:
    Args(int argc, char **argv, int first,
         std::vector<std::string> allowed)
        : prog_(argv[0]), command_(argv[first - 1]),
          allowed_(std::move(allowed))
    {
        for (int i = first; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0) {
                positional_.push_back(argv[i]);
                continue;
            }
            const std::string name(argv[i] + 2);
            bool known = false;
            for (const std::string &a : allowed_)
                known = known || a == name;
            if (!known) {
                error_ = "unknown flag '--" + name + "'";
                return;
            }
            if (i + 1 >= argc) {
                error_ = "flag '--" + name + "' needs a value";
                return;
            }
            flags_.emplace_back(name, argv[i + 1]);
            ++i;
        }
    }

    /** Non-empty when parsing failed. */
    const std::string &error() const { return error_; }

    std::string
    flag(const std::string &name, const std::string &fallback) const
    {
        const std::string *value = find(name);
        return value ? *value : fallback;
    }

    /**
     * Integer flag no smaller than @p min. The whole value must be a
     * base-10 integer that fits a long: "12x", "abc", an overflow or
     * a value below @p min prints the usage text and exits 1, like
     * every other command-line error, instead of reading as a prefix,
     * as 0, or wrapping when cast to an unsigned count.
     */
    long
    flagInt(const std::string &name, long fallback,
            long min = std::numeric_limits<long>::min()) const
    {
        const std::string *value = find(name);
        return value ? wholeNumber("flag '--" + name + "'", *value, min,
                                   std::numeric_limits<long>::max())
                     : fallback;
    }

    /**
     * Floating-point flag. The whole value must parse as a finite
     * number: "3x", "abc", "inf" or an out-of-range value prints the
     * usage text and exits 1 instead of reading as a prefix or as 0.
     */
    double
    flagDouble(const std::string &name, double fallback) const
    {
        const std::string *value = find(name);
        return value ? finiteNumber("flag '--" + name + "'", *value)
                     : fallback;
    }

    /** Print "COMMAND: message" and the usage text, then exit 1. */
    [[noreturn]] void
    usageError(const std::string &message) const
    {
        std::fprintf(stderr, "%s: %s\n", command_.c_str(),
                     message.c_str());
        printUsage(stderr, prog_.c_str());
        std::exit(1);
    }

    /**
     * @p text, the argument @p what names, as a base-10 whole number
     * in [min, max]; anything else ("12x", "abc", an overflow, a value
     * out of range) is a usage error.
     */
    long
    wholeNumber(const std::string &what, const std::string &text,
                long min, long max) const
    {
        errno = 0;
        char *end = nullptr;
        const long n = std::strtol(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
            n < min || n > max) {
            const bool lower = min != std::numeric_limits<long>::min();
            const bool upper = max != std::numeric_limits<long>::max();
            const std::string bound =
                upper ? " in " + std::to_string(min) + ".." +
                            std::to_string(max)
                : lower ? " >= " + std::to_string(min)
                        : "";
            usageError(what + " needs a whole number" + bound +
                       ", got '" + text + "'");
        }
        return n;
    }

    /** @p text as a finite number ("3x", "abc", "inf" and an
     *  out-of-range value are usage errors). */
    double
    finiteNumber(const std::string &what, const std::string &text) const
    {
        errno = 0;
        char *end = nullptr;
        const double x = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
            !std::isfinite(x))
            usageError(what + " needs a finite number, got '" + text +
                       "'");
        return x;
    }

    const std::vector<std::string> &
    positional() const
    {
        return positional_;
    }

  private:
    const std::string *
    find(const std::string &name) const
    {
        for (const auto &[key, value] : flags_)
            if (key == name)
                return &value;
        return nullptr;
    }

    std::string prog_;
    std::string command_;
    std::vector<std::string> allowed_;
    std::vector<std::pair<std::string, std::string>> flags_;
    std::vector<std::string> positional_;
    std::string error_;
};

/** Join argv into the command line recorded in the run manifest. */
std::string
joinCommandLine(int argc, char **argv)
{
    std::string line;
    for (int i = 0; i < argc; ++i) {
        if (i > 0)
            line += ' ';
        line += argv[i];
    }
    return line;
}

/**
 * Arms metrics/tracing when --metrics-out / --trace-out were given
 * and writes both files when the command returns (any path, success
 * or failure -- a failed run's partial manifest is still useful).
 */
class ObservabilityScope
{
  public:
    ObservabilityScope(const Args &args, std::string command,
                       std::string command_line)
        : metricsOut_(args.flag("metrics-out", "")),
          traceOut_(args.flag("trace-out", "")),
          command_(std::move(command)),
          commandLine_(std::move(command_line))
    {
        if (!metricsOut_.empty())
            metrics::setMetricsEnabled(true);
        if (!traceOut_.empty())
            trace::setTraceEnabled(true);
    }

    void setSeed(std::uint64_t seed) { seed_ = seed; }

    ~ObservabilityScope()
    {
        if (!metricsOut_.empty()) {
            metrics::ManifestInfo info;
            info.tool = "vaesa_cli";
            info.command = command_;
            info.commandLine = commandLine_;
            info.seed = seed_;
            if (!metrics::writeManifest(metricsOut_, info))
                std::fprintf(stderr,
                             "warning: could not write %s\n",
                             metricsOut_.c_str());
            else
                std::printf("metrics manifest: %s\n",
                            metricsOut_.c_str());
        }
        if (!traceOut_.empty()) {
            if (!trace::writeChromeTrace(traceOut_))
                std::fprintf(stderr,
                             "warning: could not write %s\n",
                             traceOut_.c_str());
            else
                std::printf("chrome trace: %s (%zu events)\n",
                            traceOut_.c_str(),
                            trace::eventCount());
        }
    }

  private:
    std::string metricsOut_;
    std::string traceOut_;
    std::string command_;
    std::string commandLine_;
    std::uint64_t seed_ = 0;
};

/**
 * Resolve the target layers: --layers FILE (Table IV text format)
 * wins over --workload NAME (default resnet50).
 */
Workload
resolveWorkload(const Args &args)
{
    const std::string file = args.flag("layers", "");
    if (!file.empty()) {
        auto layers = parseLayerFile(file);
        if (!layers) {
            std::fprintf(stderr, "%s\n",
                         layers.error().describe().c_str());
            std::exit(1);
        }
        return {"custom(" + file + ")", layers.value(), {}};
    }
    return workloadByName(args.flag("workload", "resnet50"));
}

/** Resolve --metric edp|latency|energy (default edp). */
Metric
resolveMetric(const Args &args)
{
    const std::string name = args.flag("metric", "edp");
    if (name == "edp")
        return Metric::Edp;
    if (name == "latency")
        return Metric::Latency;
    if (name == "energy")
        return Metric::Energy;
    std::fprintf(stderr,
                 "unknown metric '%s' (edp|latency|energy)\n",
                 name.c_str());
    std::exit(1);
}

int
cmdSpace()
{
    const DesignSpace &ds = designSpace();
    std::printf("%-22s %12s %10s\n", "parameter", "max", "values");
    for (int p = 0; p < numHwParams; ++p) {
        const auto &spec = ds.spec(static_cast<HwParam>(p));
        std::printf("%-22s %12lld %10lld\n", spec.name.c_str(),
                    static_cast<long long>(spec.max),
                    static_cast<long long>(spec.count));
    }
    std::printf("total size: %.4g design points\n", ds.totalSize());
    return 0;
}

int
cmdEval(const Args &args)
{
    const auto &pos = args.positional();
    if (pos.size() != 6) {
        std::fprintf(stderr,
                     "eval needs: PES MACS ACCUM_KB WEIGHT_KB "
                     "INPUT_KB GLOBAL_KB\n");
        return 1;
    }
    // Out-of-domain values snap to the grid below; the cap keeps the
    // KB-to-byte scaling and the snap's arithmetic far from overflow.
    const auto value = [&](std::size_t index, const char *what) {
        return args.wholeNumber(what, pos[index], 0, 1L << 32);
    };
    AcceleratorConfig config;
    config.numPes = value(0, "PES");
    config.numMacs = value(1, "MACS");
    config.accumBufBytes = value(2, "ACCUM_KB") * 1024;
    config.weightBufBytes = value(3, "WEIGHT_KB") * 1024;
    config.inputBufBytes = value(4, "INPUT_KB") * 1024;
    config.globalBufBytes = value(5, "GLOBAL_KB") * 1024;
    const DesignSpace &ds = designSpace();
    for (int p = 0; p < numHwParams; ++p) {
        const auto param = static_cast<HwParam>(p);
        config.setValue(param,
                        ds.snapValue(param, config.value(param)));
    }

    const Workload workload = resolveWorkload(args);
    Evaluator evaluator;
    const EvalResult r = evaluator.evaluateWorkload(config, workload);
    std::printf("config (snapped): %s\n", config.describe().c_str());
    std::printf("area: %.2f mm^2\n", AreaModel().totalMm2(config));
    if (!r.valid) {
        std::printf("UNMAPPABLE for %s\n", workload.name.c_str());
        return 2;
    }
    std::printf("%s: latency %.6g cycles, energy %.6g pJ, EDP "
                "%.6g\n",
                workload.name.c_str(), r.latencyCycles, r.energyPj,
                r.edp);
    return 0;
}

int
cmdTrain(const Args &args, ObservabilityScope &obs)
{
    if (args.positional().empty()) {
        std::fprintf(stderr, "train needs: MODEL.BIN\n");
        return 1;
    }
    const std::string path = args.positional()[0];
    const auto dataset_size =
        static_cast<std::size_t>(args.flagInt("dataset", 8000, 1));
    const auto epochs =
        static_cast<std::size_t>(args.flagInt("epochs", 50, 1));
    const auto latent =
        static_cast<std::size_t>(args.flagInt("latent", 4, 1));
    const double alpha = args.flagDouble("alpha", 1e-4);
    const auto seed =
        static_cast<std::uint64_t>(args.flagInt("seed", 7));
    const auto checkpoint_every = static_cast<std::size_t>(
        args.flagInt("checkpoint-every", 1, 1));
    obs.setSeed(seed);

    Evaluator evaluator;
    std::vector<LayerShape> pool;
    std::vector<double> pool_weights;
    const std::string mix_file = args.flag("mix", "");
    if (!mix_file.empty()) {
        const auto mix = parseTrafficMixFile(mix_file);
        if (!mix) {
            std::fprintf(stderr, "%s\n",
                         mix.error().describe().c_str());
            return 1;
        }
        pool = mixLayerPool(mix.value(), &pool_weights);
        std::printf("traffic mix %s: %zu workloads, %zu pool "
                    "layers\n",
                    mix_file.c_str(), mix.value().entries.size(),
                    pool.size());
    } else {
        for (const Workload &w : trainingWorkloads())
            pool.insert(pool.end(), w.layers.begin(), w.layers.end());
    }
    std::printf("building dataset (%zu samples)...\n", dataset_size);
    Rng rng(42);
    DatasetBuilder builder(evaluator, pool);
    if (!pool_weights.empty())
        builder.setLayerWeights(pool_weights);
    const Dataset data = builder.build(dataset_size, rng);

    FrameworkOptions options;
    options.vae.latentDim = latent;
    options.train.epochs = epochs;
    options.train.kldWeight = alpha;
    options.train.checkpointPath = args.flag("checkpoint", "");
    options.train.checkpointEvery = checkpoint_every;
    options.train.stopFlag = &gTrainStop;
    std::signal(SIGTERM, handleTrainStop);
    std::signal(SIGINT, handleTrainStop);
    std::printf("training (latent %zu, %zu epochs, alpha %g)...\n",
                latent, epochs, alpha);
    VaesaFramework framework(data, options, seed);
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    if (gTrainStop.load(std::memory_order_relaxed)) {
        std::printf("training interrupted; resumable checkpoint "
                    "%s\n",
                    options.train.checkpointPath.empty()
                        ? "not written (no --checkpoint)"
                        : options.train.checkpointPath.c_str());
        return 0;
    }
    std::printf("final recon MSE: %.5f; latent radius: %.2f\n",
                framework.history().back().reconLoss,
                framework.latentRadius(data));
    if (const auto err = saveFramework(path, framework)) {
        std::fprintf(stderr, "%s\n", err->describe().c_str());
        return 1;
    }
    std::printf("snapshot saved to %s\n", path.c_str());
    return 0;
}

int
cmdSearch(const Args &args, ObservabilityScope &obs)
{
    if (args.positional().empty()) {
        std::fprintf(stderr, "search needs: MODEL.BIN\n");
        return 1;
    }
    const std::string method = args.flag("method", "vae_bo");
    if (method != "vae_bo" && method != "bo" && method != "random") {
        std::fprintf(stderr,
                     "unknown method '%s' (vae_bo|bo|random)\n",
                     method.c_str());
        return 1;
    }
    const std::string path = args.positional()[0];
    const Workload workload = resolveWorkload(args);
    const Metric metric = resolveMetric(args);
    const auto samples =
        static_cast<std::size_t>(args.flagInt("samples", 200, 1));
    const auto seed =
        static_cast<std::uint64_t>(args.flagInt("seed", 1));
    obs.setSeed(seed);
    SearchCheckpointConfig checkpoint_config;
    checkpoint_config.path = args.flag("checkpoint", "");
    checkpoint_config.every = static_cast<std::size_t>(
        args.flagInt("checkpoint-every", 1, 1));
    const SearchCheckpointConfig *checkpoint =
        checkpoint_config.path.empty() ? nullptr
                                       : &checkpoint_config;
    // The snapshot carries no dataset, so vae_bo sizes the latent box
    // from the prior: the KL-regularized encodings live within a few
    // sigma of the origin.
    const double radius = args.flagDouble("radius", 3.0);
    if (method == "vae_bo" && radius <= 0.0)
        args.usageError("flag '--radius' needs a number > 0, got '" +
                        args.flag("radius", "") + "'");

    auto loaded = loadFramework(path);
    if (!loaded) {
        std::fprintf(stderr, "%s\n",
                     loaded.error().describe().c_str());
        return 1;
    }
    std::unique_ptr<VaesaFramework> framework =
        std::move(loaded.value());

    Evaluator evaluator;
    Rng rng(seed);
    SearchTrace trace;
    AcceleratorConfig best;
    if (method == "vae_bo") {
        LatentObjective latent_obj(*framework, evaluator, workload,
                                   radius, metric);
        trace = BayesOpt().run(latent_obj, samples, rng, nullptr,
                               checkpoint);
        best = latent_obj.decode(trace.bestPoint());
    } else {
        InputSpaceObjective input_obj(evaluator, workload, metric);
        if (method == "bo")
            trace = BayesOpt().run(input_obj, samples, rng, nullptr,
                                   checkpoint);
        else
            trace = RandomSearch().run(input_obj, samples, rng,
                                       nullptr, checkpoint);
        best = input_obj.decode(trace.bestPoint());
    }

    std::printf("%s on %s, %zu samples: best %s %.6g\n",
                method.c_str(), workload.name.c_str(), samples,
                metricName(metric), trace.best());
    std::printf("best design: %s\n", best.describe().c_str());
    std::printf("area: %.2f mm^2\n", AreaModel().totalMm2(best));
    return 0;
}

int
cmdDecode(const Args &args)
{
    const auto &pos = args.positional();
    if (pos.size() < 2) {
        std::fprintf(stderr, "decode needs: MODEL.BIN Z1 [Z2 ...]\n");
        return 1;
    }
    std::vector<double> z;
    for (std::size_t i = 1; i < pos.size(); ++i)
        z.push_back(args.finiteNumber("Z" + std::to_string(i), pos[i]));
    auto loaded = loadFramework(pos[0]);
    if (!loaded) {
        std::fprintf(stderr, "%s\n",
                     loaded.error().describe().c_str());
        return 1;
    }
    std::unique_ptr<VaesaFramework> framework =
        std::move(loaded.value());
    if (z.size() != framework->latentDim()) {
        std::fprintf(stderr, "model has a %zu-D latent space\n",
                     framework->latentDim());
        return 1;
    }
    const AcceleratorConfig config = framework->decodeLatent(z);
    std::printf("decoded: %s\n", config.describe().c_str());

    Evaluator evaluator;
    const Workload workload = resolveWorkload(args);
    const EvalResult r = evaluator.evaluateWorkload(config, workload);
    if (r.valid)
        std::printf("%s EDP: %.6g\n", workload.name.c_str(), r.edp);
    else
        std::printf("UNMAPPABLE for %s\n", workload.name.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage(stderr, argv[0]);
        return 1;
    }
    const std::string command = argv[1];

    std::vector<std::string> allowed;
    if (command == "space") {
        // no flags
    } else if (command == "eval") {
        allowed = {"workload", "layers"};
    } else if (command == "train") {
        allowed = {"latent", "epochs", "dataset", "alpha", "seed",
                   "mix", "checkpoint", "checkpoint-every",
                   "metrics-out", "trace-out"};
    } else if (command == "search") {
        allowed = {"workload", "layers", "metric", "samples",
                   "method", "seed", "radius", "checkpoint",
                   "checkpoint-every", "metrics-out", "trace-out"};
    } else if (command == "decode") {
        allowed = {"workload", "layers"};
    } else {
        std::fprintf(stderr, "unknown command '%s'\n",
                     command.c_str());
        printUsage(stderr, argv[0]);
        return 1;
    }

    const Args args(argc, argv, 2, std::move(allowed));
    if (!args.error().empty()) {
        std::fprintf(stderr, "%s: %s\n", command.c_str(),
                     args.error().c_str());
        printUsage(stderr, argv[0]);
        return 1;
    }

    if (command == "space")
        return cmdSpace();
    if (command == "eval")
        return cmdEval(args);
    if (command == "train" || command == "search") {
        // The scope's destructor writes metrics.json / trace.json
        // after the command returns, whatever its exit path.
        ObservabilityScope obs(args, command,
                               joinCommandLine(argc, argv));
        return command == "train" ? cmdTrain(args, obs)
                                  : cmdSearch(args, obs);
    }
    return cmdDecode(args);
}
