#include "vaesa/checkpoint.hh"

#include "nn/serialize.hh"
#include "util/atomic_io.hh"
#include "util/fault.hh"
#include "util/logging.hh"
#include "util/state_io.hh"

namespace vaesa {

namespace {

constexpr std::uint32_t checkpointMagic = 0x56434B50; // "VCKP"
constexpr std::uint32_t checkpointVersion = 1;

// History entries beyond this are corruption, not training runs.
constexpr std::uint64_t maxHistoryLen = 1u << 24;

void
putEpochStats(ByteBuffer &out, const EpochStats &stats)
{
    out.putF64(stats.reconLoss);
    out.putF64(stats.kldLoss);
    out.putF64(stats.latencyLoss);
    out.putF64(stats.energyLoss);
    out.putF64(stats.totalLoss);
}

EpochStats
getEpochStats(ByteReader &in)
{
    EpochStats stats;
    stats.reconLoss = in.getF64();
    stats.kldLoss = in.getF64();
    stats.latencyLoss = in.getF64();
    stats.energyLoss = in.getF64();
    stats.totalLoss = in.getF64();
    return stats;
}

Expected<TrainCheckpoint>
loadTrainCheckpointFile(const std::string &path,
                        nn::Adam &optimizer)
{
    Expected<std::string> bytes = readFileBytes(path);
    if (!bytes)
        return bytes.error();
    RecordReader in(bytes.value(), path);
    std::uint32_t version = 0;
    if (auto err = in.readHeader(checkpointMagic, checkpointVersion,
                                 checkpointVersion, &version))
        return *err;

    Expected<std::string> meta_record = in.readRecord();
    if (!meta_record)
        return meta_record.error();
    ByteReader meta(meta_record.value().data(),
                    meta_record.value().size());
    TrainCheckpoint checkpoint;
    checkpoint.epochsDone = meta.getU64();
    if (!readRngState(meta, checkpoint.rng))
        return in.makeError(LoadError::Kind::Malformed,
                            "corrupt RNG state");
    const std::uint64_t history_len = meta.getU64();
    if (meta.failed() || history_len > maxHistoryLen)
        return in.makeError(LoadError::Kind::Malformed,
                            "corrupt history length");
    // Each entry is five f64s; a declared length the record cannot
    // possibly back would otherwise drive a huge up-front reserve()
    // from a CRC-valid but hostile file (found by fuzzing).
    if (history_len > meta.remaining() / (5 * sizeof(double)))
        return in.makeError(LoadError::Kind::Malformed,
                            "history length exceeds record payload");
    checkpoint.history.reserve(history_len);
    for (std::uint64_t i = 0; i < history_len; ++i)
        checkpoint.history.push_back(getEpochStats(meta));
    if (meta.failed() || !meta.atEnd())
        return in.makeError(LoadError::Kind::Malformed,
                            "corrupt checkpoint metadata record");

    Expected<std::string> optim_record = in.readRecord();
    if (!optim_record)
        return optim_record.error();
    ByteReader optim_reader(optim_record.value().data(),
                            optim_record.value().size());
    if (auto err = optimizer.deserializeState(optim_reader)) {
        err->file = path;
        return *err;
    }
    if (!optim_reader.atEnd())
        return in.makeError(LoadError::Kind::Malformed,
                            "trailing bytes in optimizer record");

    if (auto err = nn::readParameterRecords(in, optimizer.params()))
        return *err;
    if (!in.atEnd())
        return in.makeError(LoadError::Kind::Malformed,
                            "trailing bytes after last parameter");
    return checkpoint;
}

} // namespace

std::optional<LoadError>
saveTrainCheckpoint(const std::string &path,
                    const TrainCheckpoint &checkpoint,
                    const nn::Adam &optimizer)
{
    RecordWriter out(checkpointMagic, checkpointVersion);

    ByteBuffer meta;
    meta.putU64(checkpoint.epochsDone);
    putRngState(meta, checkpoint.rng);
    meta.putU64(checkpoint.history.size());
    for (const EpochStats &stats : checkpoint.history)
        putEpochStats(meta, stats);
    out.writeRecord(meta);

    ByteBuffer optim_state;
    optimizer.serializeState(optim_state);
    out.writeRecord(optim_state);

    nn::writeParameterRecords(out, optimizer.params());

    faultCheck("checkpoint_save");
    return atomicWriteFileWithRotation(path, out.bytes());
}

Expected<TrainCheckpoint>
loadTrainCheckpoint(const std::string &path, nn::Adam &optimizer)
{
    // A corrupt file can fail mid-parse after overwriting some
    // parameters or moments; snapshot everything first so a failed
    // load leaves the model exactly as it was (fresh-start safe).
    ByteBuffer saved_state;
    optimizer.serializeState(saved_state);
    std::vector<Matrix> saved_params;
    saved_params.reserve(optimizer.params().size());
    for (const nn::Parameter *p : optimizer.params())
        saved_params.push_back(p->value);

    Expected<TrainCheckpoint> result =
        loadWithFallback<TrainCheckpoint>(
            path, [&optimizer](const std::string &file) {
                return loadTrainCheckpointFile(file, optimizer);
            });
    if (!result) {
        ByteReader reader(saved_state.data().data(),
                          saved_state.size());
        if (optimizer.deserializeState(reader))
            panic("loadTrainCheckpoint: rollback failed");
        for (std::size_t i = 0; i < saved_params.size(); ++i)
            optimizer.params()[i]->value = saved_params[i];
    }
    return result;
}

} // namespace vaesa
