/**
 * @file
 * vaesa_serve: the DSE-as-a-service daemon. Loads an optional model
 * checkpoint once, binds a Unix or loopback-TCP socket, and serves
 * ScoreConfig / DecodeLatent / SearchK requests over the CRC-framed
 * binary protocol (docs/SERVING.md) until SIGTERM/SIGINT drains it.
 * SIGHUP hot-reloads the --model checkpoint without dropping
 * in-flight requests.
 *
 * Flag parsing is strict: an unknown or value-less flag prints the
 * usage text and exits nonzero instead of being silently ignored.
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/server.hh"

namespace {

vaesa::serve::Server *gServer = nullptr;

void
handleSignal(int sig)
{
    if (gServer == nullptr)
        return;
    if (sig == SIGHUP)
        gServer->requestReload();
    else
        gServer->requestShutdown();
}

void
printUsage(std::FILE *out, const char *prog)
{
    std::fprintf(
        out,
        "usage: %s [--unix PATH | --port N] [--model FILE]\n"
        "       [--eval-threads N] [--service-threads N]\n"
        "       [--max-connections N] [--max-inflight-search N]\n"
        "       [--idle-timeout-ms N] [--max-deadline-ms N]\n"
        "       [--max-samples N] [--latent-radius X]\n"
        "       [--manifest-out FILE]\n"
        "\n"
        "Serves ScoreConfig/DecodeLatent/SearchK over the framed\n"
        "binary protocol (docs/SERVING.md). --port 0 picks an\n"
        "ephemeral loopback port and prints it. SIGTERM/SIGINT\n"
        "drain gracefully; SIGHUP hot-reloads --model.\n"
        "ScoreConfig/DecodeLatent scoring runs on the connection's\n"
        "service thread with one memo-cache probe per request.\n",
        prog);
}

bool
parseSize(const char *text, std::size_t *out)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        return false;
    *out = static_cast<std::size_t>(value);
    return true;
}

bool
parseDouble(const char *text, double *out)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0')
        return false;
    *out = value;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    vaesa::serve::ServeOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto nextValue = [&](const char **value) {
            if (i + 1 >= argc)
                return false;
            *value = argv[++i];
            return true;
        };
        const char *value = nullptr;
        std::size_t size = 0;
        if (flag == "--help" || flag == "-h") {
            printUsage(stdout, argv[0]);
            return 0;
        } else if (flag == "--unix" && nextValue(&value)) {
            options.unixPath = value;
        } else if (flag == "--port" && nextValue(&value)) {
            if (!parseSize(value, &size) || size > 65535) {
                std::fprintf(stderr, "bad --port value\n");
                return 2;
            }
            options.tcpPort = static_cast<std::uint16_t>(size);
        } else if (flag == "--model" && nextValue(&value)) {
            options.modelPath = value;
        } else if (flag == "--eval-threads" && nextValue(&value) &&
                   parseSize(value, &size)) {
            options.evalThreads = size;
        } else if (flag == "--service-threads" &&
                   nextValue(&value) && parseSize(value, &size)) {
            options.serviceThreads = size;
        } else if (flag == "--max-connections" &&
                   nextValue(&value) && parseSize(value, &size)) {
            options.maxConnections = size;
        } else if (flag == "--max-inflight-search" &&
                   nextValue(&value) && parseSize(value, &size)) {
            options.maxInflightSearch = size;
        } else if (flag == "--idle-timeout-ms" &&
                   nextValue(&value) && parseSize(value, &size)) {
            options.idleTimeoutMs =
                static_cast<std::uint32_t>(size);
        } else if (flag == "--max-deadline-ms" &&
                   nextValue(&value) && parseSize(value, &size)) {
            options.maxDeadlineMs =
                static_cast<std::uint32_t>(size);
        } else if (flag == "--max-samples" && nextValue(&value) &&
                   parseSize(value, &size)) {
            options.maxSearchSamples =
                static_cast<std::uint32_t>(size);
        } else if (flag == "--latent-radius" && nextValue(&value)) {
            double radius = 0.0;
            if (!parseDouble(value, &radius) || radius <= 0.0) {
                std::fprintf(stderr, "bad --latent-radius value\n");
                return 2;
            }
            options.latentRadius = radius;
        } else if (flag == "--manifest-out" && nextValue(&value)) {
            options.manifestPath = value;
        } else {
            std::fprintf(stderr, "unknown or value-less flag '%s'\n",
                         flag.c_str());
            printUsage(stderr, argv[0]);
            return 2;
        }
    }

    vaesa::serve::Server server(options);
    gServer = &server;
    std::signal(SIGTERM, handleSignal);
    std::signal(SIGINT, handleSignal);
    std::signal(SIGHUP, handleSignal);

    if (auto err = server.start()) {
        std::fprintf(stderr, "vaesa_serve: %s\n",
                     err->describe().c_str());
        gServer = nullptr;
        return 1;
    }
    if (options.unixPath.empty()) {
        std::printf("listening on 127.0.0.1:%u\n",
                    static_cast<unsigned>(server.port()));
        // Supervisors parse this line through a pipe, where stdio is
        // block-buffered: without a flush the port announcement sits
        // in the buffer until the daemon EXITS.
        std::fflush(stdout);
    }
    const int rc = server.serve();
    gServer = nullptr;
    return rc;
}
