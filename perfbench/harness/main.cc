/**
 * @file
 * perfbench: one run of one benchmark workload.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --bin-dir DIR --out-dir DIR
 *
 * Prints the run identity and a human-readable report, then, as the
 * last stdout line, one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics with --trace 0, the per-layer
 * metrics with --trace 1. Exits 1 when an output check fails and 2 on
 * a usage error. See README.md.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"

namespace {

using namespace perfbench;

int
usage(const char *prog)
{
    std::fprintf(stderr,
                 "usage: %s --workload serve_score|search_vae_bo|"
                 "search_random|train --seed N --seconds S --trace 0|1 "
                 "--bin-dir DIR --out-dir DIR\n",
                 prog);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            opts.seconds = std::strtod(value, nullptr);
        else if (flag == "--trace")
            opts.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--bin-dir")
            opts.binDir = value;
        else if (flag == "--out-dir")
            opts.outDir = value;
        else
            return usage(argv[0]);
    }
    if (argc % 2 != 1 || opts.seconds <= 0.0 || opts.binDir.empty() ||
        opts.outDir.empty())
        return usage(argv[0]);

    Result result;
    int rc = 0;
    if (opts.workload == "serve_score")
        rc = runServeScore(opts, result);
    else if (opts.workload == "search_vae_bo")
        rc = runSearchVaeBo(opts, result);
    else if (opts.workload == "search_random")
        rc = runSearchRandom(opts, result);
    else if (opts.workload == "train")
        rc = runTrain(opts, result);
    else
        return usage(argv[0]);

    if (opts.trace)
        fillMissingPerLayer(result);
    for (const std::string &err : result.errors())
        std::printf("CHECK FAILED: %s\n", err.c_str());
    std::printf("%s\n", result.json().c_str());
    std::fflush(stdout);
    return rc != 0 || !result.correct() ? 1 : 0;
}
