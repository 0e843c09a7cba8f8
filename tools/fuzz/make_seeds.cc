/**
 * @file
 * Seed-corpus generator: `vaesa_fuzz_seeds <out-dir>` writes one
 * subdirectory per fuzz target containing
 *  - valid files produced by the real savers (so the fuzzer starts
 *    deep inside the parsers instead of fighting the CRC gate), and
 *  - the known-hostile regression inputs: CRC-valid files whose
 *    content lies about its own size or shape, each the reproducer
 *    of a fixed loader bug (see tests/vaesa/test_hostile_inputs.cc).
 *
 * The checked-in corpus under tools/fuzz/regress/ is this tool's
 * output; regenerate after a format change and re-commit.
 *
 * All inputs are harness-shaped: binary targets carry the mode byte
 * (0x00 = raw) documented in harness.hh; text targets are verbatim.
 *
 * This tool lives outside src/ and may use iostream directly.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>

#include "dse/search_state.hh"
#include "nn/linear.hh"
#include "nn/optim.hh"
#include "util/atomic_io.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/state_io.hh"
#include "vaesa/checkpoint.hh"
#include "vaesa/dataset.hh"
#include "serve/protocol.hh"
#include "vaesa/serialize.hh"

namespace vaesa::fuzztool {
namespace {

namespace fs = std::filesystem;

int seedsWritten = 0;

/** Write one seed file, counting and reporting failures loudly. */
void
writeSeed(const fs::path &dir, const std::string &name,
          const std::string &contents)
{
    const fs::path path = dir / name;
    if (auto err = atomicWriteFile(path.string(), contents))
        fatal("vaesa_fuzz_seeds: cannot write ", path.string(), ": ",
              err->describe());
    ++seedsWritten;
}

/** Prefix with the harness raw-passthrough mode byte. */
std::string
raw(const std::string &fileBytes)
{
    return std::string(1, '\0') + fileBytes;
}

/** Run a path-based saver and return the file bytes it produced. */
template <typename Saver>
std::string
capture(const fs::path &dir, Saver &&saver)
{
    const fs::path stage = dir / "_stage.bin";
    if (auto err = saver(stage.string()))
        fatal("vaesa_fuzz_seeds: saver failed: ", err->describe());
    auto bytes = readFileBytes(stage.string());
    if (!bytes)
        fatal("vaesa_fuzz_seeds: cannot re-read stage file");
    std::remove(stage.string().c_str());
    std::remove((stage.string() + ".prev").c_str());
    return bytes.value();
}

/** Framework options record with the given dimensions. */
ByteBuffer
optionsPayload(std::uint64_t input_dim, std::uint64_t hidden,
               std::uint64_t latent_dim, double slope)
{
    ByteBuffer payload;
    payload.putU64(input_dim);
    payload.putU64(1); // one hidden layer
    payload.putU64(hidden);
    payload.putU64(latent_dim);
    payload.putF64(slope);
    payload.putU64(0); // no predictor hidden layers
    return payload;
}

std::string
singleRecordFile(std::uint32_t magic, std::uint32_t version,
                 const ByteBuffer &payload)
{
    RecordWriter out(magic, version);
    out.writeRecord(payload);
    return out.bytes();
}

void
seedFramework(const fs::path &dir)
{
    constexpr std::uint32_t magic = 0x56534657; // "VSFW"
    constexpr std::uint32_t version = 2;

    FrameworkOptions options;
    options.vae.hiddenDims = {6};
    options.vae.latentDim = 2;
    options.predictorHidden = {4};
    Normalizer hw;
    hw.setBounds(std::vector<double>(6, 0.0),
                 std::vector<double>(6, 1.0));
    Normalizer layer;
    layer.setBounds(std::vector<double>(numLayerFeatures, 0.0),
                    std::vector<double>(numLayerFeatures, 1.0));
    Normalizer lat;
    lat.setBounds({0.0}, {1.0});
    Normalizer en;
    en.setBounds({0.0}, {1.0});
    VaesaFramework framework(options, /*seed=*/11, hw, layer, lat,
                             en);
    writeSeed(dir, "valid.bin",
              raw(capture(dir, [&](const std::string &path) {
                  return saveFramework(path, framework);
              })));

    writeSeed(dir, "options_only.bin",
              raw(singleRecordFile(
                  magic, version, optionsPayload(6, 8, 2, 0.01))));
    // Regression reproducers: CRC-valid, content hostile.
    writeSeed(dir, "hostile_input_dim.bin",
              raw(singleRecordFile(
                  magic, version,
                  optionsPayload(std::uint64_t{1} << 40, 8, 2,
                                 0.01))));
    writeSeed(dir, "hostile_hidden_width.bin",
              raw(singleRecordFile(
                  magic, version,
                  optionsPayload(6, std::uint64_t{1} << 50, 2,
                                 0.01))));
    writeSeed(
        dir, "hostile_nonfinite.bin",
        raw(singleRecordFile(
            magic, version,
            optionsPayload(
                6, 8, 2,
                std::numeric_limits<double>::infinity()))));
}

void
seedTrainCheckpoint(const fs::path &dir)
{
    constexpr std::uint32_t magic = 0x56434B50; // "VCKP"
    constexpr std::uint32_t version = 1;

    Rng rng(11);
    nn::Linear layer(3, 2, rng, "fuzz");
    nn::Adam optimizer(layer.parameters());
    TrainCheckpoint checkpoint;
    checkpoint.epochsDone = 2;
    checkpoint.history.resize(2);
    writeSeed(dir, "valid.bin",
              raw(capture(dir, [&](const std::string &path) {
                  return saveTrainCheckpoint(path, checkpoint,
                                             optimizer);
              })));

    // Regression reproducer: declares 2^24 history entries backed by
    // zero payload bytes (used to reserve ~670 MB up front).
    ByteBuffer meta;
    meta.putU64(3);
    putRngState(meta, RngState{});
    meta.putU64(std::uint64_t{1} << 24);
    writeSeed(dir, "hostile_history.bin",
              raw(singleRecordFile(magic, version, meta)));
}

void
seedSearchState(const fs::path &dir)
{
    constexpr std::uint32_t magic = 0x56535243; // "VSRC"
    constexpr std::uint32_t version = 1;

    SearchSnapshot snapshot;
    snapshot.driver = SearchDriver::Random;
    TracePoint point;
    point.x = {0.25, 0.5, 0.75};
    point.value = 1.5;
    snapshot.trace.points.push_back(point);
    snapshot.payload = "driver-payload";
    writeSeed(dir, "valid.bin",
              raw(capture(dir, [&](const std::string &path) {
                  return saveSearchSnapshot(path, snapshot);
              })));

    // Driver tag 2 belonged to the retired genetic search; a
    // snapshot naming it must load as Malformed.
    snapshot.driver = static_cast<SearchDriver>(2);
    writeSeed(dir, "retired_driver.bin",
              raw(capture(dir, [&](const std::string &path) {
                  return saveSearchSnapshot(path, snapshot);
              })));

    // Regression reproducer: declares 2^26 trace points backed by
    // zero payload bytes (used to reserve multiple GB up front).
    RecordWriter out(magic, version);
    ByteBuffer meta;
    meta.putU32(1); // SearchDriver::Random
    putRngState(meta, RngState{});
    out.writeRecord(meta);
    ByteBuffer trace;
    trace.putU64(std::uint64_t{1} << 26);
    out.writeRecord(trace);
    writeSeed(dir, "hostile_trace.bin", raw(out.bytes()));
}

void
seedWorkload(const fs::path &dir)
{
    writeSeed(dir, "valid.txt",
              "# AlexNet-ish conv layer\n"
              "conv1 11 11 55 55 3 96 4 4\n"
              "3 3 27 27 96 256 1 1\n");
    writeSeed(dir, "malformed.txt",
              "conv1 11 11 55 55 3 96 4\n"      // 7 dims
              "conv2 a b c d e f g h\n"         // non-numeric
              "conv3 -1 0 55 55 3 96 4 4\n");   // non-positive
}

/** Prefix with the harness re-frame mode byte (payload-only seed). */
std::string
reframed(const std::string &payload)
{
    return std::string(1, '\x01') + payload;
}

void
seedServe(const fs::path &dir)
{
    using namespace serve;
    // One valid request per message type, in re-framed shape so the
    // mutator starts past the CRC gate.
    Request ping;
    ping.id = 1;
    ping.type = MsgType::Ping;
    writeSeed(dir, "ping.bin", reframed(serializeRequest(ping)));

    Request score;
    score.id = 2;
    score.type = MsgType::ScoreConfig;
    score.deadlineMs = 50;
    score.workload = "alexnet";
    writeSeed(dir, "score.bin", reframed(serializeRequest(score)));

    Request decode;
    decode.id = 3;
    decode.type = MsgType::DecodeLatent;
    decode.latent = {0.25, -0.5, 1.0, 0.0};
    decode.workload = "resnet50";
    writeSeed(dir, "decode.bin",
              reframed(serializeRequest(decode)));

    Request search;
    search.id = 4;
    search.type = MsgType::SearchK;
    search.workload = "deepbench";
    search.samples = 64;
    search.method = SearchMethod::Bo;
    search.seed = 99;
    writeSeed(dir, "search.bin",
              reframed(serializeRequest(search)));

    Request reload;
    reload.id = 5;
    reload.type = MsgType::Reload;
    reload.reloadPath = "/tmp/model.bin";
    writeSeed(dir, "reload.bin",
              reframed(serializeRequest(reload)));

    // Raw-mode hostiles: a complete valid frame, a bit-flipped CRC,
    // and a truncated frame -- each must be rejected, never crash.
    const std::string frame = frameMessage(serializeRequest(score));
    writeSeed(dir, "frame_valid.bin", raw(frame));
    std::string corrupt = frame;
    corrupt[frame.size() / 2] =
        static_cast<char>(corrupt[frame.size() / 2] ^ 0x40);
    writeSeed(dir, "frame_bad_crc.bin", raw(corrupt));
    writeSeed(dir, "frame_truncated.bin",
              raw(frame.substr(0, frame.size() - 3)));

    // Content hostile: a DecodeLatent whose dim lies about the
    // payload length (CRC-valid once re-framed).
    ByteBuffer lying;
    lying.putU64(6); // id
    lying.putU32(static_cast<std::uint32_t>(MsgType::DecodeLatent));
    lying.putU32(0);   // deadline
    lying.putU64(48);  // claims 48 doubles...
    lying.putF64(1.0); // ...carries one
    writeSeed(dir, "decode_lying_dim.bin",
              reframed(std::string(lying.data())));
}

} // namespace
} // namespace vaesa::fuzztool

int
main(int argc, char **argv)
{
    using namespace vaesa::fuzztool;
    if (argc != 2) {
        std::cerr << "usage: vaesa_fuzz_seeds <out-dir>\n";
        return 2;
    }
    const fs::path root = argv[1];
    const struct
    {
        const char *name;
        void (*fill)(const fs::path &);
    } targets[] = {
        {"framework", seedFramework},
        {"train_checkpoint", seedTrainCheckpoint},
        {"search_state", seedSearchState},
        {"workload", seedWorkload},
        {"serve", seedServe},
    };
    for (const auto &target : targets) {
        const fs::path dir = root / target.name;
        std::error_code ec;
        fs::create_directories(dir, ec);
        if (ec) {
            std::cerr << "vaesa_fuzz_seeds: cannot create " << dir
                      << ": " << ec.message() << "\n";
            return 1;
        }
        target.fill(dir);
    }
    std::cout << "vaesa_fuzz_seeds: wrote " << seedsWritten
              << " seed(s) under " << root.string() << "\n";
    return 0;
}
